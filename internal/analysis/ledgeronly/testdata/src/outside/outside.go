// Package outside is a ledgeronly fixture for code beyond internal/core:
// mutating core.Metrics or calling the fabric configuration/readback
// mutators is flagged; reading counters and accumulating snapshots is not.
package outside

import (
	"repro/internal/bitstream"
	"repro/internal/core"
	"repro/internal/fabric"
)

func bump(m *core.Metrics) {
	m.Loads++         // want `core\.Metrics\.Loads mutated outside internal/core`
	m.Rollbacks++     // want `core\.Metrics\.Rollbacks mutated outside internal/core`
	m.FaultTime += 10 // want `core\.Metrics\.FaultTime mutated outside internal/core`
	m.Counts.Blocks++ // want `core\.Metrics\.Blocks mutated outside internal/core`
}

func poke(dev *fabric.Device, bs *bitstream.Bitstream) {
	dev.WriteCLB(0, 0, fabric.CLBConfig{})   // want `fabric\.Device\.WriteCLB called outside internal/core`
	dev.ClearRegion(fabric.Region{})         // want `fabric\.Device\.ClearRegion called outside internal/core`
	_ = dev.ReadRegionState(fabric.Region{}) // want `fabric\.Device\.ReadRegionState called outside internal/core`
	_, _, _ = bs.Apply(dev, 0, 0, nil)       // want `bitstream\.Apply called outside internal/core`
}

// Reading metrics and accumulating snapshots is plain data flow.
func report(m *core.Metrics) int64 {
	var sum core.MetricsSnapshot
	sum.Accumulate(m.Snapshot(0))
	sum.Loads += 4
	return m.Loads
}

func hook(m *core.Metrics) {
	m.Evictions++ //vfpgavet:ignore ledgeronly -- test hook priming a counter
}
