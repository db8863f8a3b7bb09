package baseline

import (
	"fmt"

	"repro/internal/compile"
	"repro/internal/core"
	"repro/internal/hostos"
	"repro/internal/sim"
	"repro/internal/workload"
)

// strips is the partitioning of partition and of each board of multi:
// variable best-fit partitions with GC and rotation.
var strips = core.PartitionConfig{Mode: core.VariablePartitions, Fit: core.BestFit, GC: true, Rotate: true}

// kinds is the one statement of the hostos.FPGA implementations the
// daemon and vfpgasim run by name, in the order they list them, each in
// the one configuration both run it in: strips, the full amorphous
// policy, the job's first circuit resident under overlay, 16-CLB LRU
// pages (LRU draws nothing at random, so no seed), a 20x software
// slowdown, every circuit of the job merged. A perSubBoard kind's stack
// takes one engine per sub-board, any other's one engine.
var kinds = []struct {
	name        string
	perSubBoard bool
	mk          ManagerFunc
}{
	{"dynamic", false, one(core.NewDynamicLoader)},
	{"partition", false, Partition(strips)},
	{"amorphous", false, one(core.NewAmorphousManager)},
	{"overlay", false, Overlay(1)},
	{"paged", false, Paged(core.PagedConfig{PageCells: 16, Policy: core.LRU})},
	{"multi", true, func(k *sim.Kernel, e []*core.Engine, _ []*compile.Circuit, used hostos.FPGA) (hostos.FPGA, sim.Time, error) {
		mm, err := core.NewMultiManager(k, e, strips, as[*core.MultiManager](used))
		return built(mm, 0, err)
	}},
	{"exclusive", false, one(NewExclusive)},
	{"software", false, one(func(_ *sim.Kernel, e *core.Engine, used *Software) *Software { return NewSoftware(e, 20, used) })},
	{"merged", false, func(k *sim.Kernel, e []*core.Engine, circuits []*compile.Circuit, used hostos.FPGA) (hostos.FPGA, sim.Time, error) {
		if len(circuits) == 0 {
			return nil, 0, fmt.Errorf("baseline: merged manager: %w", workload.ErrNoCircuits)
		}
		return built(NewMerged(k, e[0], circuits, as[*Merged](used)))
	}},
}

// Managers returns the names of the table's kinds, in its order.
func Managers() []string {
	names := make([]string, len(kinds))
	for i, m := range kinds {
		names[i] = m.name
	}
	return names
}

// NewManager returns the ManagerFunc of the named kind, built once. An
// unknown name is the func's error.
func NewManager(name string) ManagerFunc {
	for _, m := range kinds {
		if m.name == name {
			return m.mk
		}
	}
	return func(*sim.Kernel, []*core.Engine, []*compile.Circuit, hostos.FPGA) (hostos.FPGA, sim.Time, error) {
		return nil, 0, fmt.Errorf("baseline: unknown manager %q", name)
	}
}

// Engines returns the engine count of a stack of the named kind on a
// board of subBoards sub-boards: subBoards for a kind that takes one
// engine per sub-board, 1 for any other name.
func Engines(name string, subBoards int) int {
	for _, m := range kinds {
		if m.name == name && m.perSubBoard {
			return subBoards
		}
	}
	return 1
}

// Partition builds partition managers under cfg.
func Partition(cfg core.PartitionConfig) ManagerFunc {
	return func(k *sim.Kernel, e []*core.Engine, _ []*compile.Circuit, used hostos.FPGA) (hostos.FPGA, sim.Time, error) {
		pm, err := core.NewPartitionManager(k, e[0], cfg, as[*core.PartitionManager](used))
		return built(pm, 0, err)
	}
}

// Overlay builds overlay managers that keep the job's first resident
// circuits resident and swap the rest through the overlay area. A job of
// fewer circuits is an error.
func Overlay(resident int) ManagerFunc {
	return func(k *sim.Kernel, e []*core.Engine, circuits []*compile.Circuit, used hostos.FPGA) (hostos.FPGA, sim.Time, error) {
		if len(circuits) < resident {
			return nil, 0, fmt.Errorf("baseline: overlay manager: %w", workload.ErrNoCircuits)
		}
		return built(core.NewOverlayManager(k, e[0], circuits[:resident], as[*core.OverlayManager](used)))
	}
}

// Paged builds demand-paged loaders under cfg.
func Paged(cfg core.PagedConfig) ManagerFunc {
	return func(k *sim.Kernel, e []*core.Engine, _ []*compile.Circuit, used hostos.FPGA) (hostos.FPGA, sim.Time, error) {
		pl, err := core.NewPagedLoader(k, e[0], cfg, as[*core.PagedLoader](used))
		return built(pl, 0, err)
	}
}

// one adapts the constructor of a manager of one engine that cannot
// fail.
func one[M hostos.FPGA](mk func(*sim.Kernel, *core.Engine, M) M) ManagerFunc {
	return func(k *sim.Kernel, e []*core.Engine, _ []*compile.Circuit, used hostos.FPGA) (hostos.FPGA, sim.Time, error) {
		return mk(k, e[0], as[M](used)), 0, nil
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
