package core

import (
	"fmt"

	"repro/internal/flat"
	"repro/internal/hostos"
	"repro/internal/sim"
)

// PartitionMode selects fixed- or variable-size partitions (§4).
type PartitionMode int

// Partition modes.
const (
	// FixedPartitions are carved once from a configuration table and never
	// change until "reboot".
	FixedPartitions PartitionMode = iota
	// VariablePartitions split free space on demand and merge on release,
	// with optional compacting garbage collection.
	VariablePartitions
)

func (m PartitionMode) String() string {
	if m == VariablePartitions {
		return "variable"
	}
	return "fixed"
}

// FitPolicy selects how a free partition is chosen.
type FitPolicy int

// Fit policies.
const (
	FirstFit FitPolicy = iota
	BestFit
)

func (p FitPolicy) String() string {
	if p == BestFit {
		return "best-fit"
	}
	return "first-fit"
}

// PartitionConfig parameterizes the manager.
type PartitionConfig struct {
	Mode PartitionMode
	// FixedWidths lists the column widths of fixed partitions, allocated
	// left to right; required in FixedPartitions mode.
	FixedWidths []int
	Fit         FitPolicy
	// GC enables variable-mode compaction: when no single free strip fits
	// but the total free space would, loaded circuits are relocated.
	GC bool
	// Rotate allows evicting the least-recently-used idle assignment when
	// nothing else fits ("the operating system rotates its assignment
	// among tasks").
	Rotate bool
}

// PartitionManager implements hostos.FPGA with §4's partitioning. The
// device is divided into full-height column strips; each strip hosts one
// task's circuit. Tasks suspend when no partition fits; garbage
// collection relocates loaded circuits to merge idle fragments. Every
// device touch goes through the engine's residency ledger; who holds
// which strip, displaced state and the search for space are the strip
// table's, the span-scan mechanics (fit search, split, merge,
// fragmentation accounting) the RegionMap's. What is decided here is the
// §4 policy: how the device is carved, that a task switching algorithms
// reuses its partition in place when it is wide enough, and stop-the-world
// pack-left compaction.
type PartitionManager struct {
	stripTable
	Cfg PartitionConfig

	// moving is compact's scratch: the occupied spans it walks while it
	// moves them.
	moving []*Span
	// compactFn is compact, bound once for the manager's lifetime: a
	// method value is an allocation.
	compactFn func(need int) sim.Time
}

var _ hostos.FPGA = (*PartitionManager)(nil)

// NewPartitionManager builds the manager and carves the initial
// partitions. In fixed mode any leftover columns beyond the configured
// widths are unusable (as with a partition table that does not cover the
// disk); in variable mode one free partition covers the whole device. It
// renews used, the board's last partition manager, in place (nil: a new
// one), its column map included.
func NewPartitionManager(k *sim.Kernel, e *Engine, cfg PartitionConfig, used *PartitionManager) (*PartitionManager, error) {
	pm := used
	if pm == nil {
		pm = &PartitionManager{}
	}
	rm, name, err := carve(cfg, e.Opt.Geometry.Cols, pm.rm)
	if err != nil {
		return nil, err
	}
	*pm = PartitionManager{
		stripTable: newStripTable(NewTaskKernel(k, e, name, &pm.TaskKernel), rm, &pm.stripTable),
		Cfg:        cfg,
		moving:     flat.Emptied(pm.moving),
		compactFn:  pm.compactFn,
	}
	if pm.compactFn == nil {
		pm.compactFn = pm.compact
	}
	pm.fit, pm.rotate = cfg.Fit, cfg.Rotate
	if cfg.GC && rm.Movable() {
		pm.reclaim = pm.compactFn
	}
	return pm, nil
}

// carve builds the initial region map for cfg's mode, renewing used,
// and names the manager's lint target after the mode.
func carve(cfg PartitionConfig, cols int, used *RegionMap) (*RegionMap, string, error) {
	switch cfg.Mode {
	case FixedPartitions:
		rm, err := NewFixedRegionMap(cfg.FixedWidths, cols, used)
		return rm, "partitions(fixed)", err
	case VariablePartitions:
		return NewRegionMap(cols, used), "partitions(variable)", nil
	}
	return nil, "", fmt.Errorf("core: unknown partition mode %d", cfg.Mode)
}

// FreeCols returns the total free width and the largest free strip —
// the external-fragmentation measure of F4 — straight from the region
// map's shared FragStats.
func (pm *PartitionManager) FreeCols() (total, largest int) {
	return pm.rm.FreeCols()
}

// compact relocates occupied partitions leftward so free space merges
// at the right (§4's garbage collection) — but only until a free hole
// of at least need columns exists; need <= 0 packs everything. Each
// moved circuit pays state readback, reconfiguration at the new origin,
// and state restore, all charged by the ledger's Relocate — stopping
// early charges only the relocations actually performed.
func (pm *PartitionManager) compact(need int) sim.Time {
	led := pm.E.Ledger()
	var cost sim.Time
	led.NoteGC()
	pm.moving = pm.moving[:0]
	for _, s := range pm.rm.spans {
		if !s.Free() {
			pm.moving = append(pm.moving, s)
		}
	}
	x := 0
	for _, s := range pm.moving {
		if need > 0 {
			if _, largest := pm.rm.FreeCols(); largest >= need {
				break
			}
		}
		if s.X != x {
			cost += led.Relocate(s.X, x)
			pm.rm.Move(s, x)
		}
		x += s.W
	}
	return cost
}

// Acquire implements hostos.FPGA.
func (pm *PartitionManager) Acquire(t *hostos.Task) (sim.Time, bool) {
	c := pm.CircuitOf(t)
	if p := pm.byTask[t.ID]; p != nil {
		if p.circuit == c.Name {
			p.lastUse = pm.K.Now()
			return 0, true // loaded and state in place: zero-cost reuse
		}
		if p.span.W >= c.BS.W {
			// Switch algorithms inside the task's partition, saving the
			// outgoing sequential state: the paper keeps the most recent
			// configuration per task, and a task that returns to the old
			// algorithm must find its state.
			cost := pm.saveOutgoing(p)
			led := pm.E.Ledger()
			led.Evict(p.span.X)
			_, loadCost := led.Load(t.Name, c, p.span.X, false)
			p.circuit, p.lastUse = c.Name, pm.K.Now()
			restoreCost, _ := pm.saved.restore(led, t, c, pm.region(p.span))
			return cost + loadCost + restoreCost, true
		}
		// Partition too small for the new algorithm: give it back. The
		// outgoing circuit's sequential state is NOT saved on this path
		// (AmorphousManager saves it): pinned as-is by
		// TestSwitchToWiderStripStateDivergence, because saving charges
		// one more readback and moves golden makespans. See ROADMAP.
		pm.giveUp(p)
	}
	return pm.place(t, c)
}
