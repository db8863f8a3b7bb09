package core

import (
	"slices"

	"repro/internal/compile"
	"repro/internal/flat"
	"repro/internal/hostos"
	"repro/internal/lint"
	"repro/internal/sim"
)

// TaskKernel is the operating-system mechanism every hostos.FPGA
// implementation embeds (MultiManager through its boards), so that a
// manager file holds only its placement, eviction and blocking policy: the
// engine and simulation kernel it runs on, the base registration rule and
// the lookup of a task's registered configuration, the execution-time and
// preserved-work arithmetic, the base preemption rules, the queue of tasks
// suspended for space, and the lint view. Its methods are exported
// because internal/baseline embeds it too.
type TaskKernel struct {
	E  *Engine
	K  *sim.Kernel
	OS *hostos.OS // set by hostos.New through AttachOS

	name    string // the name of the manager's lint target
	waiters []*hostos.Task
}

// NewTaskKernel binds the engine's ledger to k (nil for a manager that
// never touches the device) and names the manager's lint target. It
// renews used, the task kernel of a manager being renewed, keeping its
// suspension queue's array emptied; nil or a zero one has none to keep.
func NewTaskKernel(k *sim.Kernel, e *Engine, name string, used *TaskKernel) TaskKernel {
	if k != nil {
		e.Ledger().Bind(k)
	}
	tk := TaskKernel{E: e, K: k, name: name}
	if used != nil {
		tk.waiters = flat.Emptied(used.waiters)
	}
	return tk
}

// AttachOS implements hostos.Attacher.
func (tk *TaskKernel) AttachOS(os *hostos.OS) { tk.OS = os }

// CircuitOf returns the compiled circuit of the task's current request.
func (tk *TaskKernel) CircuitOf(t *hostos.Task) *compile.Circuit {
	c, err := tk.E.Circuit(t.CurrentRequest().Circuit)
	if err != nil {
		panic(err) // Register validated at spawn; absence is a program bug
	}
	return c
}

// Register implements hostos.FPGA's base rule: the circuit is in the
// engine library (workloads pre-populate it, so registration validates).
func (tk *TaskKernel) Register(t *hostos.Task, circuit string) error {
	_, err := tk.E.Circuit(circuit)
	return err
}

// ExecAt returns the hardware time of the task's current request on the
// strip at column originX, stretched by that strip's pin multiplexing
// (none when nothing is resident there, as at originX -1) and by
// completion detection. It is the one place hardware execution time is
// computed.
func (tk *TaskKernel) ExecAt(t *hostos.Task, originX int) sim.Time {
	req := t.CurrentRequest()
	mux := 1
	if r := tk.E.Ledger().ResidentAt(originX); r != nil {
		mux = r.Mux
	}
	return tk.E.ExecQuantum(sim.Time(req.Evaluations+req.Cycles)*tk.CircuitOf(t).ClockPeriod, mux)
}

// Boundary rounds the work done on a preempted operation down to the last
// of its n steps (input vectors or clock cycles) that completed: the step
// in flight is re-presented on resume. n is the caller's because a state
// policy rounds by Evaluations or by Cycles and a resident strip by their
// sum.
func Boundary(n int64, done, total sim.Time) sim.Time {
	if n <= 0 {
		return done
	}
	per := total / sim.Time(n)
	if per <= 0 {
		return done
	}
	return (done / per) * per
}

// Preempt implements hostos.FPGA's base rule for a circuit that stays
// where it is across preemption: nothing is saved, and only the step in
// flight is lost.
func (tk *TaskKernel) Preempt(t *hostos.Task, done, total sim.Time) (sim.Time, sim.Time) {
	req := t.CurrentRequest()
	return 0, Boundary(req.Evaluations+req.Cycles, done, total)
}

// Preemptable implements hostos.FPGA's base rule: combinational streams
// preempt at vector boundaries; sequential circuits unless policy forbids.
func (tk *TaskKernel) Preemptable(t *hostos.Task) bool {
	return !tk.CircuitOf(t).Sequential || tk.E.Opt.State != NonPreemptable
}

// Block suspends t until the manager's next Wake.
func (tk *TaskKernel) Block(t *hostos.Task) {
	tk.E.Ledger().NoteBlock(t.Name)
	tk.waiters = append(tk.waiters, t)
}

// Wake unblocks every suspended task; each retries its Acquire in
// scheduling order and re-suspends if space is still short. Unblock
// only readies a task — the retry runs when the task is next dispatched
// — so nothing suspends while the queue is walked, and it keeps its
// array.
func (tk *TaskKernel) Wake() {
	for _, w := range tk.waiters {
		tk.OS.Unblock(w)
	}
	tk.waiters = flat.Emptied(tk.waiters)
}

// Waiting reports whether t is suspended here.
func (tk *TaskKernel) Waiting(t *hostos.Task) bool { return slices.Contains(tk.waiters, t) }

// LintTarget exports the manager's live device state for the static
// verifier: the ledger's view under the manager's name. The strip
// managers export their column map too.
func (tk *TaskKernel) LintTarget() *lint.Target {
	return tk.E.Ledger().LintTarget(tk.name)
}

// LintTargets implements LintTargeter: one device, one target.
func (tk *TaskKernel) LintTargets() []*lint.Target {
	return []*lint.Target{tk.LintTarget()}
}

// emptiedMap clears m for a renewed manager, or makes the map a new one
// starts with when m is nil.
func emptiedMap[M ~map[K]V, K comparable, V any](m M) M {
	if m == nil {
		return M{}
	}
	clear(m)
	return m
}
