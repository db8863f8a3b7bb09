package core

import (
	"fmt"

	"repro/internal/hostos"
	"repro/internal/sim"
)

// MultiManager virtualizes a set of FPGA boards as one resource — the
// paper's §2 remark that "a computing system composed only of FPGA-based
// boards" can be virtualized the same way. Each board is a device with
// its own partition manager; tasks are placed on a board on first use
// and stay there (their partitions, pins and saved state are per-board).
//
// Placement policy: the board with the largest free strip that fits the
// request; ties break to the lower board index (deterministic).
type MultiManager struct {
	Boards []*PartitionManager
}

var _ hostos.FPGA = (*MultiManager)(nil)

// NewMultiManager builds n boards with identical geometry and partition
// configuration. Each board gets its own Engine (device, pins, metrics);
// circuits are shared across boards' libraries (they are immutable). It
// renews used, the last multi-manager over these engines, in place (nil:
// a new one): board i renews used's board i.
func NewMultiManager(k *sim.Kernel, engines []*Engine, cfg PartitionConfig, used *MultiManager) (*MultiManager, error) {
	if len(engines) == 0 {
		return nil, fmt.Errorf("core: multi-manager needs at least one board")
	}
	m := used
	if m == nil {
		m = &MultiManager{}
	}
	old := m.Boards
	m.Boards = old[:0]
	for i, e := range engines {
		var prev *PartitionManager
		if i < len(old) {
			prev = old[i] // read before the append below overwrites it
		}
		pm, err := NewPartitionManager(k, e, cfg, prev)
		if err != nil {
			return nil, err
		}
		m.Boards = append(m.Boards, pm)
	}
	return m, nil
}

// AttachOS implements hostos.Attacher: every board unblocks through the
// same OS.
func (m *MultiManager) AttachOS(os *hostos.OS) {
	for _, b := range m.Boards {
		b.AttachOS(os)
	}
}

// Register implements hostos.FPGA: the circuit must fit at least one
// board.
func (m *MultiManager) Register(t *hostos.Task, circuit string) error {
	var lastErr error
	for _, b := range m.Boards {
		if err := b.Register(t, circuit); err == nil {
			return nil
		} else {
			lastErr = err
		}
	}
	return lastErr
}

// boardOf returns the board already hosting the task, or nil.
func (m *MultiManager) boardOf(t *hostos.Task) *PartitionManager {
	for _, b := range m.Boards {
		if b.holds(t) {
			return b
		}
	}
	return nil
}

// chooseBoard picks the board for a task's first allocation.
func (m *MultiManager) chooseBoard(t *hostos.Task) *PartitionManager {
	c := m.Boards[0].CircuitOf(t)
	need := c.BS.W
	var best *PartitionManager
	bestFree := -1
	for _, b := range m.Boards {
		if c.BS.W > b.E.Opt.Geometry.Cols {
			continue // circuit cannot fit this board at all
		}
		_, largest := b.FreeCols()
		if largest >= need && largest > bestFree {
			best, bestFree = b, largest
		}
	}
	if best != nil {
		return best
	}
	// Nothing fits right now: queue on the least-loaded feasible board.
	var fallback *PartitionManager
	bestTotal := -1
	for _, b := range m.Boards {
		if c.BS.W > b.E.Opt.Geometry.Cols {
			continue
		}
		total, _ := b.FreeCols()
		if total > bestTotal {
			fallback, bestTotal = b, total
		}
	}
	if fallback == nil {
		panic(fmt.Sprintf("core: circuit %s fits no board (Register should have rejected it)", c.Name))
	}
	return fallback
}

// Acquire implements hostos.FPGA.
func (m *MultiManager) Acquire(t *hostos.Task) (sim.Time, bool) {
	b := m.boardOf(t)
	if b == nil {
		b = m.chooseBoard(t)
	}
	return b.Acquire(t)
}

// ExecTime implements hostos.FPGA.
func (m *MultiManager) ExecTime(t *hostos.Task) sim.Time {
	return m.mustBoard(t).ExecTime(t)
}

// Preemptable implements hostos.FPGA.
func (m *MultiManager) Preemptable(t *hostos.Task) bool {
	return m.mustBoard(t).Preemptable(t)
}

// Preempt implements hostos.FPGA.
func (m *MultiManager) Preempt(t *hostos.Task, done, total sim.Time) (sim.Time, sim.Time) {
	return m.mustBoard(t).Preempt(t, done, total)
}

// Resume implements hostos.FPGA.
func (m *MultiManager) Resume(t *hostos.Task) sim.Time {
	return m.mustBoard(t).Resume(t)
}

// Complete implements hostos.FPGA.
func (m *MultiManager) Complete(t *hostos.Task) {
	m.mustBoard(t).Complete(t)
}

// Remove implements hostos.FPGA: release on the hosting board; tasks
// suspended on ANY board get a fresh chance, since the exit may have
// freed the pins or columns they were waiting for.
func (m *MultiManager) Remove(t *hostos.Task) {
	if b := m.boardOf(t); b != nil {
		b.Remove(t)
	}
	for _, b := range m.Boards {
		b.Wake()
	}
}

func (m *MultiManager) mustBoard(t *hostos.Task) *PartitionManager {
	if b := m.boardOf(t); b != nil {
		return b
	}
	panic(fmt.Sprintf("core: task %s has no board", t.Name))
}

// Metrics aggregates a counter across boards.
func (m *MultiManager) TotalLoads() int64 {
	var n int64
	for _, b := range m.Boards {
		n += b.E.M.Loads
	}
	return n
}

// TotalBlocks sums suspension events across boards.
func (m *MultiManager) TotalBlocks() int64 {
	var n int64
	for _, b := range m.Boards {
		n += b.E.M.Blocks
	}
	return n
}

// Check audits every board in turn, as PartitionManager.Check does, and
// returns the first rule broken, its board named "board<i>/", or nil.
func (m *MultiManager) Check() error {
	for i, b := range m.Boards {
		if err := b.Check(); err != nil {
			return fmt.Errorf("board%d/%w", i, err)
		}
	}
	return nil
}
