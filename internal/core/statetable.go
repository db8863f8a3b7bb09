package core

import (
	"repro/internal/compile"
	"repro/internal/fabric"
	"repro/internal/hostos"
	"repro/internal/sim"
)

// savedKey indexes displaced sequential state per task and circuit; the
// manager restores it when the task's circuit is loaded again.
type savedKey struct {
	task    hostos.TaskID
	circuit string
}

// forgetSaved drops every state saved for task t.
func forgetSaved(saved map[savedKey][]bool, t hostos.TaskID) {
	for k := range saved {
		if k.task == t {
			delete(saved, k)
		}
	}
}

// rollbackLimit bounds consecutive rollbacks before an operation is
// allowed to run to completion (starvation guard).
const rollbackLimit = 3

// slot is one place a time-shared circuit is loaded — the whole device of
// the dynamic loader, a resident or the overlay area of the overlay
// manager — and whose flip-flop state it currently holds. Pins and mux
// live in the ledger's residency table.
type slot struct {
	x         int
	circuit   *compile.Circuit // nil when empty
	owner     hostos.TaskID    // whose state the FFs hold
	ownerName string
	hasOwner  bool
}

func (s *slot) region() fabric.Region { return s.circuit.BS.Region(s.x, 0) }

// stateTable virtualizes sequential state per task over slots that
// several tasks share (§3): a task's flip-flops are read back when
// another task takes the slot and written back when it returns, or the
// interrupted operation restarts from reset under the rollback policy.
// Only the table touches saved, rolledBack, rollbackStreak and a slot's
// owner record; managers decide which slot a circuit goes to and what it
// displaces, and write only a slot's circuit.
type stateTable struct {
	TaskKernel

	slots []*slot // every slot of the manager, in column order
	saved map[savedKey][]bool
	// rolledBack marks in-flight ops that must restart from reset state.
	rolledBack map[hostos.TaskID]bool
	// rollbackStreak counts consecutive rollbacks of a task's current op;
	// after rollbackLimit the op runs non-preemptable to completion, or a
	// long operation under persistent contention would starve forever.
	rollbackStreak map[hostos.TaskID]int
}

func newStateTable(tk TaskKernel) stateTable {
	return stateTable{
		TaskKernel:     tk,
		saved:          map[savedKey][]bool{},
		rolledBack:     map[hostos.TaskID]bool{},
		rollbackStreak: map[hostos.TaskID]int{},
	}
}

// addSlot registers an empty slot at column x.
func (st *stateTable) addSlot(x int) *slot {
	s := &slot{x: x}
	st.slots = append(st.slots, s)
	return s
}

// save reads the owner's flip-flop state out of s into the table; the
// slot is left holding nobody's state.
func (st *stateTable) save(s *slot) sim.Time {
	state, cost := st.E.Ledger().Readback(s.ownerName, s.circuit, s.region())
	st.saved[savedKey{s.owner, s.circuit.Name}] = state
	s.hasOwner = false
	return cost
}

// adopt makes the flip-flops of s (holding sequential circuit c) belong
// to task t: another owner's state is saved first, then t's op restarts
// from reset after a rollback, or t's saved state is restored, or — first
// use — the registers are reset to their init values.
func (st *stateTable) adopt(s *slot, t *hostos.Task, c *compile.Circuit) sim.Time {
	if s.hasOwner && s.owner == t.ID && !st.rolledBack[t.ID] {
		return 0 // the slot already holds this task's live state
	}
	led := st.E.Ledger()
	var cost sim.Time
	if s.hasOwner && s.owner != t.ID {
		cost += st.save(s)
	}
	key := savedKey{t.ID, c.Name}
	switch {
	case st.rolledBack[t.ID]:
		delete(st.rolledBack, t.ID)
		cost += led.Reset(t.Name, c, s.region())
	case st.saved[key] != nil:
		cost += led.Restore(t.Name, c, s.region(), st.saved[key])
		delete(st.saved, key)
	default:
		cost += led.Reset(t.Name, c, s.region())
	}
	s.owner, s.ownerName, s.hasOwner = t.ID, t.Name, true
	return cost
}

// Preemptable implements hostos.FPGA: the base rule plus the rollback
// starvation guard.
func (st *stateTable) Preemptable(t *hostos.Task) bool {
	if st.E.Opt.State == Rollback && st.rollbackStreak[t.ID] >= rollbackLimit &&
		st.CircuitOf(t).Sequential {
		return false // let the op finish this time
	}
	return st.TaskKernel.Preemptable(t)
}

// preempt is §3's preemption analysis for task t's in-flight op on slot
// s. A combinational stream keeps its completed vectors (the stream
// position is CPU-side state). A sequential op is either saved — and
// keeps its completed cycles — or rolled back to nothing.
func (st *stateTable) preempt(s *slot, t *hostos.Task, done, total sim.Time) (overhead, preserved sim.Time) {
	c := st.CircuitOf(t)
	req := t.CurrentRequest()
	if !c.Sequential {
		return 0, Boundary(req.Evaluations, done, total)
	}
	switch st.E.Opt.State {
	case SaveRestore:
		if s.circuit != nil && s.circuit.Name == c.Name && s.hasOwner && s.owner == t.ID {
			overhead = st.save(s)
		}
		return overhead, Boundary(req.Cycles, done, total)
	case Rollback:
		st.E.Ledger().Rollback(t.Name, c.Name)
		st.rolledBack[t.ID] = true
		st.rollbackStreak[t.ID]++
		return 0, 0
	}
	panic("core: Preempt called on non-preemptable operation")
}

// Complete implements hostos.FPGA: a finished op ends its rollback streak.
func (st *stateTable) Complete(t *hostos.Task) {
	delete(st.rollbackStreak, t.ID)
}

// Remove implements hostos.FPGA: everything the table holds for the
// exiting task is dropped, including its claim on the state in any slot.
func (st *stateTable) Remove(t *hostos.Task) {
	forgetSaved(st.saved, t.ID)
	delete(st.rolledBack, t.ID)
	delete(st.rollbackStreak, t.ID)
	for _, s := range st.slots {
		if s.hasOwner && s.owner == t.ID {
			s.hasOwner = false
		}
	}
}
