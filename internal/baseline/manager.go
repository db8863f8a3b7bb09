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
// the func's error. A used manager of the named kind is renewed in
// place; any other builds a new one.
func NewManager(name string, circuits []string) ManagerFunc {
	return func(k *sim.Kernel, engines []*core.Engine, used hostos.FPGA) (hostos.FPGA, sim.Time, error) {
		e := engines[0]
		strips := core.PartitionConfig{Mode: core.VariablePartitions, Fit: core.BestFit, GC: true, Rotate: true}
		switch name {
		case "dynamic":
			return core.NewDynamicLoader(k, e, as[*core.DynamicLoader](used)), 0, nil
		case "partition":
			pm, err := core.NewPartitionManager(k, e, strips, as[*core.PartitionManager](used))
			return built(pm, 0, err)
		case "amorphous":
			return core.NewAmorphousManager(k, e, as[*core.AmorphousManager](used)), 0, nil
		case "paged":
			pl, err := core.NewPagedLoader(k, e, core.PagedConfig{PageCells: 16, Policy: core.LRU}, as[*core.PagedLoader](used))
			return built(pl, 0, err)
		case "multi":
			mm, err := core.NewMultiManager(k, engines, strips, as[*core.MultiManager](used))
			return built(mm, 0, err)
		case "exclusive":
			return NewExclusive(k, e, as[*Exclusive](used)), 0, nil
		case "software":
			return NewSoftware(e, 20, as[*Software](used)), 0, nil
		case "overlay", "merged":
			if len(circuits) == 0 {
				return nil, 0, fmt.Errorf("baseline: %s manager: %w", name, workload.ErrNoCircuits)
			}
			if name == "overlay" {
				return built(core.NewOverlayManager(k, e, circuits[:1], as[*core.OverlayManager](used)))
			}
			return built(NewMerged(k, e, circuits, as[*Merged](used)))
		}
		return nil, 0, fmt.Errorf("baseline: unknown manager %q", name)
	}
}

// as returns used as an M to renew, or nil — a new one — when it is
// another kind of manager or none.
func as[M hostos.FPGA](used hostos.FPGA) M {
	m, _ := used.(M)
	return m
}

// built keeps a failed constructor's nil pointer out of the interface.
func built[M hostos.FPGA](m M, initCost sim.Time, err error) (hostos.FPGA, sim.Time, error) {
	if err != nil {
		return nil, 0, err
	}
	return m, initCost, nil
}
