package core

import (
	"fmt"

	"repro/internal/compile"
	"repro/internal/fabric"
	"repro/internal/flat"
	"repro/internal/hostos"
	"repro/internal/sim"
)

// savedKey indexes displaced sequential state per task and circuit; the
// manager restores it when the task's circuit is loaded again.
type savedKey struct {
	task    hostos.TaskID
	circuit string
}

// savedState is the OS table of displaced sequential state (§3's
// observability and controllability): a task's flip-flops are read back
// into it when its circuit leaves the device under it, and written back
// from it when the circuit returns. The slot and strip tables each keep
// one; nothing else reads the device state back or restores it.
type savedState map[savedKey][]bool

// save reads owner's flip-flop state of c out of region r into the table.
func (ss savedState) save(led *Ledger, owner *hostos.Task, c *compile.Circuit, r fabric.Region) sim.Time {
	state, cost := led.Readback(owner.Name, c, r)
	ss[savedKey{owner.ID, c.Name}] = state
	return cost
}

// restore writes t's saved state of c back into region r and drops it
// from the table, reporting whether any was saved.
func (ss savedState) restore(led *Ledger, t *hostos.Task, c *compile.Circuit, r fabric.Region) (sim.Time, bool) {
	key := savedKey{t.ID, c.Name}
	state, ok := ss[key]
	if !ok {
		return 0, false
	}
	cost := led.Restore(t.Name, c, r, state)
	delete(ss, key)
	return cost, true
}

// forget drops every state saved for task t.
func (ss savedState) forget(t hostos.TaskID) {
	for k := range ss {
		if k.task == t {
			delete(ss, k)
		}
	}
}

// has reports whether any state is saved for task t.
func (ss savedState) has(t hostos.TaskID) bool {
	for k := range ss {
		if k.task == t {
			return true
		}
	}
	return false
}

// rollbackLimit bounds consecutive rollbacks before an operation is
// allowed to run to completion (starvation guard).
const rollbackLimit = 3

// slot is one place a time-shared circuit is loaded — the whole device of
// the dynamic loader, a resident or the overlay area of the overlay
// manager — and whose flip-flop state it currently holds. Pins and mux
// live in the ledger's residency table.
type slot struct {
	x       int
	circuit *compile.Circuit // nil when empty
	owner   *hostos.Task     // whose state the FFs hold; nil for nobody's
}

func (s *slot) region() fabric.Region { return s.circuit.BS.Region(s.x, 0) }

// stateTable virtualizes sequential state per task over slots that
// several tasks share (§3): a task's flip-flops are read back when
// another task takes the slot and written back when it returns, or the
// interrupted operation restarts from reset under the rollback policy.
// Only the table touches saved, rolledBack, rollbackStreak and a slot's
// contents; managers decide which slot a circuit goes to.
type stateTable struct {
	TaskKernel

	slots []slot // every slot of the manager, in column order
	saved savedState
	// rolledBack marks in-flight ops that must restart from reset state.
	rolledBack map[hostos.TaskID]bool
	// rollbackStreak counts consecutive rollbacks of a task's current op;
	// after rollbackLimit the op runs non-preemptable to completion, or a
	// long operation under persistent contention would starve forever.
	rollbackStreak map[hostos.TaskID]int
}

// newStateTable returns a table over tk with n empty slots at column
// 0, for the manager to place; the slots never move, so a manager may
// keep pointers to them. It renews used, the table of a manager being
// renewed (a zero one for a new manager): its maps are emptied and its
// slot array reused.
func newStateTable(tk TaskKernel, used *stateTable, n int) stateTable {
	return stateTable{
		TaskKernel:     tk,
		slots:          flat.Zeroed(used.slots, n),
		saved:          emptiedMap(used.saved),
		rolledBack:     emptiedMap(used.rolledBack),
		rollbackStreak: emptiedMap(used.rollbackStreak),
	}
}

// swap makes slot s hold task t's circuit with t's state, returning the
// time this costs; it mutates the device immediately and the OS charges
// the returned duration to the task. Another circuit in s is evicted, its
// sequential owner's state saved first, and t's circuit downloaded — over
// the whole device when whole is set and the fabric cannot reconfigure
// partially (the paper's plain-XC4000 case).
func (st *stateTable) swap(s *slot, t *hostos.Task, whole bool) sim.Time {
	c := st.CircuitOf(t)
	led := st.E.Ledger()
	var cost sim.Time
	if s.circuit == nil || s.circuit.Name != c.Name {
		if s.circuit != nil {
			if s.circuit.Sequential && s.owner != nil {
				cost += st.saved.save(led, s.owner, s.circuit, s.region())
			}
			led.Evict(s.x)
			s.circuit = nil
		}
		_, loadCost, err := led.TryLoad(t.Name, c, s.x, whole)
		if err != nil {
			// Wrap instead of stringifying: a *fault.EscalationError in the
			// chain must stay typed for the serve layer's recover handler.
			panic(fmt.Errorf("core: load %s: %w", c.Name, err))
		}
		cost += loadCost
		s.circuit, s.owner = c, nil
	}
	if c.Sequential {
		cost += st.adopt(s, t, c)
	}
	return cost
}

// adopt makes the flip-flops of s (holding sequential circuit c) belong
// to task t: another owner's state is saved first, then t's op restarts
// from reset after a rollback, or t's saved state is restored, or — first
// use — the registers are reset to their init values.
func (st *stateTable) adopt(s *slot, t *hostos.Task, c *compile.Circuit) sim.Time {
	if s.owner == t && !st.rolledBack[t.ID] {
		return 0 // the slot already holds this task's live state
	}
	led := st.E.Ledger()
	var cost sim.Time
	if s.owner != nil && s.owner != t {
		cost += st.saved.save(led, s.owner, c, s.region())
	}
	restored := false
	if st.rolledBack[t.ID] {
		delete(st.rolledBack, t.ID)
	} else {
		var rc sim.Time
		rc, restored = st.saved.restore(led, t, c, s.region())
		cost += rc
	}
	if !restored {
		cost += led.Reset(t.Name, c, s.region())
	}
	s.owner = t
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
		if s.circuit != nil && s.circuit.Name == c.Name && s.owner == t {
			overhead = st.saved.save(st.E.Ledger(), t, c, s.region())
			s.owner = nil
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
	st.saved.forget(t.ID)
	delete(st.rolledBack, t.ID)
	delete(st.rollbackStreak, t.ID)
	for i := range st.slots {
		s := &st.slots[i]
		if s.owner == t {
			s.owner = nil
		}
	}
}
