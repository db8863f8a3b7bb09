package baseline

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/hostos"
	"repro/internal/sim"
	"repro/internal/workload"
)

// NewManager returns the ManagerFunc for the hostos.FPGA implementation
// the daemon and vfpgasim call by name, in the one configuration both
// run it in: variable best-fit partitions with GC and rotation
// (partition, and each board of multi), the full amorphous policy, the
// first of circuits resident under overlay, 16-CLB LRU pages (LRU draws
// nothing at random, so no seed), a 20x software slowdown, every one of
// circuits merged. The stack holds one engine, or one per board for
// multi; circuits is the job's circuit set in order. An unknown name is
// the func's error.
func NewManager(name string, circuits []string) ManagerFunc {
	return func(k *sim.Kernel, engines []*core.Engine) (hostos.FPGA, sim.Time, error) {
		e := engines[0]
		strips := core.PartitionConfig{Mode: core.VariablePartitions, Fit: core.BestFit, GC: true, Rotate: true}
		switch name {
		case "dynamic":
			return core.NewDynamicLoader(k, e), 0, nil
		case "partition":
			pm, err := core.NewPartitionManager(k, e, strips)
			return built(pm, 0, err)
		case "amorphous":
			return core.NewAmorphousManager(k, e), 0, nil
		case "paged":
			pl, err := core.NewPagedLoader(k, e, core.PagedConfig{PageCells: 16, Policy: core.LRU})
			return built(pl, 0, err)
		case "multi":
			mm, err := core.NewMultiManager(k, engines, strips)
			return built(mm, 0, err)
		case "exclusive":
			return NewExclusive(k, e), 0, nil
		case "software":
			return NewSoftware(e, 20), 0, nil
		case "overlay", "merged":
			if len(circuits) == 0 {
				return nil, 0, fmt.Errorf("baseline: %s manager: %w", name, workload.ErrNoCircuits)
			}
			if name == "overlay" {
				return built(core.NewOverlayManager(k, e, circuits[:1]))
			}
			return built(NewMerged(k, e, circuits))
		}
		return nil, 0, fmt.Errorf("baseline: unknown manager %q", name)
	}
}

// built keeps a failed constructor's nil pointer out of the interface.
func built[M hostos.FPGA](m M, initCost sim.Time, err error) (hostos.FPGA, sim.Time, error) {
	if err != nil {
		return nil, 0, err
	}
	return m, initCost, nil
}
