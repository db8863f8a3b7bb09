// Package hostos simulates the general-purpose multitasking (possibly
// time-shared) host operating system of the paper: tasks with programs
// mixing CPU bursts and FPGA operations, a single-CPU scheduler
// (FIFO, round-robin, or preemptive priority), context-switch and
// system-call costs, and a pluggable FPGA resource manager.
//
// The FPGA itself is behind the FPGA interface; internal/core provides
// the paper's VFPGA managers and internal/baseline provides the
// comparison policies (exclusive non-preemptable FPGA, merged circuit,
// software-only execution).
package hostos

import (
	"fmt"
	"slices"

	"repro/internal/flat"
	"repro/internal/sim"
)

// Policy selects the CPU scheduling discipline.
type Policy int

// Scheduling policies.
const (
	FIFO     Policy = iota // run to completion, arrival order
	RR                     // round-robin with Config.TimeSlice
	Priority               // preemptive static priority (lower = higher)
)

func (p Policy) String() string {
	switch p {
	case FIFO:
		return "fifo"
	case RR:
		return "rr"
	case Priority:
		return "priority"
	}
	return fmt.Sprintf("policy(%d)", int(p))
}

// ParsePolicy is the inverse of Policy.String for the three disciplines.
func ParsePolicy(name string) (Policy, error) {
	for _, p := range []Policy{FIFO, RR, Priority} {
		if p.String() == name {
			return p, nil
		}
	}
	return 0, fmt.Errorf("hostos: unknown scheduler %q", name)
}

// Config parameterizes the OS.
type Config struct {
	Policy    Policy
	TimeSlice sim.Time // quantum for RR (and priority round-robin ties)
	CtxSwitch sim.Time // cost charged on every dispatch of a different task
	Syscall   sim.Time // cost of entering the OS for an FPGA request
}

// DefaultConfig returns a 1990s-workstation flavored configuration:
// a 10 ms time slice and tens-of-microseconds kernel costs.
func DefaultConfig() Config {
	return Config{
		Policy:    RR,
		TimeSlice: 10 * sim.Millisecond,
		CtxSwitch: 50 * sim.Microsecond,
		Syscall:   10 * sim.Microsecond,
	}
}

// TaskID identifies a task.
type TaskID int

// TaskState enumerates the lifecycle states.
type TaskState int

// Task states.
const (
	TaskNew TaskState = iota
	TaskReady
	TaskRunning
	TaskBlocked // waiting for the FPGA resource
	TaskDone
)

func (s TaskState) String() string {
	switch s {
	case TaskNew:
		return "new"
	case TaskReady:
		return "ready"
	case TaskRunning:
		return "running"
	case TaskBlocked:
		return "blocked"
	case TaskDone:
		return "done"
	}
	return fmt.Sprintf("state(%d)", int(s))
}

// OpKind enumerates program operations. One byte: it sits in every Op.
type OpKind uint8

// Program operation kinds.
const (
	OpCompute OpKind = iota // CPU burst of duration D
	OpFPGA                  // hardware operation described by Req
)

// FPGARequest describes one hardware operation. Ops hold requests by
// pointer, and one request may be shared by many ops, tasks and jobs: a
// workload.SetCache hands one built set to many boards at once. So a
// request is read-only once an op points at it; nothing may write
// through it or its Pages. Managers read it by value, through
// Task.CurrentRequest.
type FPGARequest struct {
	// Circuit names a configuration previously registered for the task.
	Circuit string
	// Evaluations is the number of input vectors pushed through a
	// combinational circuit (each takes one clock period).
	Evaluations int64
	// Cycles is the number of clock cycles a sequential circuit runs.
	Cycles int64
	// Pages optionally lists the configuration pages this operation
	// touches, for demand-paged managers; nil means the whole circuit.
	Pages []int
}

// Op is one step of a task program: 24 bytes on a 64-bit build. A set
// issues a handful of distinct requests over hundreds of ops, so an op
// points at its request instead of carrying one.
type Op struct {
	Kind OpKind
	D    sim.Time     // OpCompute duration
	Req  *FPGARequest // OpFPGA request, read-only; nil for OpCompute
}

// Compute returns a CPU burst op.
func Compute(d sim.Time) Op { return Op{Kind: OpCompute, D: d} }

// UseFPGA returns a hardware op that runs req, which it shares, not
// copies: req must not change afterwards.
func UseFPGA(req *FPGARequest) Op { return Op{Kind: OpFPGA, Req: req} }

// flight tracks an FPGA op in progress across preemptions.
type flight struct {
	active   bool
	acquired bool // resource held (setup already paid)
	execLeft sim.Time
	total    sim.Time
}

// TaskStats is what one task spent, in virtual time, and how often it
// was preempted and acquired the FPGA: kept in its Task and shipped as
// is in the daemon's job result.
type TaskStats struct {
	CPUTime     sim.Time `json:"cpu_ns"`        // OpCompute execution
	HWTime      sim.Time `json:"hw_ns"`         // FPGA execution (including re-done rolled-back work)
	Overhead    sim.Time `json:"overhead_ns"`   // syscalls, configuration, save/restore, ctx switches
	ReadyWait   sim.Time `json:"ready_wait_ns"` // time spent runnable but not running
	BlockWait   sim.Time `json:"block_wait_ns"` // time spent blocked on the FPGA resource
	Preemptions int64    `json:"preemptions"`
	Acquires    int64    `json:"acquires"`
}

// Task is one process in the simulated system.
type Task struct {
	ID       TaskID
	Name     string
	Priority int // lower is more urgent (Priority policy)

	program []Op
	pc      int
	state   TaskState
	// computeLeft is the remaining time of the current OpCompute.
	computeLeft sim.Time
	fl          flight

	// Metrics, all in virtual time.
	Created  sim.Time
	FirstRun sim.Time
	Finished sim.Time
	TaskStats

	lastChange sim.Time
	started    bool
}

// State returns the task's current state.
//
//vfpgavet:ignore testonly -- observation hook: the hostos, core and baseline tests read task states
func (t *Task) State() TaskState { return t.state }

// Turnaround returns completion time minus creation time (0 if unfinished).
func (t *Task) Turnaround() sim.Time {
	if t.state != TaskDone {
		return 0
	}
	return t.Finished - t.Created
}

// CurrentRequest returns the FPGA request of the op the task is executing
// or blocked on. It panics if the current op is not an FPGA op — callers
// are the FPGA managers, which are only consulted during FPGA ops.
func (t *Task) CurrentRequest() FPGARequest {
	op := &t.program[t.pc]
	if op.Kind != OpFPGA {
		panic(fmt.Sprintf("hostos: task %s op %d is not an FPGA op", t.Name, t.pc))
	}
	return *op.Req
}

// FPGA is the hardware resource manager the OS delegates FPGA operations
// to. internal/core implements the paper's virtualization policies;
// internal/baseline implements the comparison points.
type FPGA interface {
	// Register declares, at task-load time, a configuration the task will
	// use — the paper's fopen-like system call that stores the
	// configuration in the operating system tables.
	Register(t *Task, circuit string) error
	// Acquire asks for the task's current request to be made ready
	// (loading/partition assignment). If ready, setup is the time charged
	// to the task (download, table walks). If not ready the task blocks;
	// the manager must call OS.Unblock(t) when it can proceed, and the
	// subsequent Acquire must succeed.
	Acquire(t *Task) (setup sim.Time, ready bool)
	// ExecTime returns the pure hardware time of the task's current
	// request once loaded.
	ExecTime(t *Task) sim.Time
	// Preemptable reports whether the task's in-flight hardware op may be
	// preempted (sequential circuits need observable/controllable state;
	// a manager may declare the resource non-preemptable).
	Preemptable(t *Task) bool
	// Preempt is called when the OS preempts an in-flight hardware op
	// after `done` of `total` execution. It returns the immediate
	// overhead (state readback) and how much completed work survives
	// (done for save/restore; 0 for rollback).
	Preempt(t *Task, done, total sim.Time) (overhead, preserved sim.Time)
	// Resume is called when a preempted hardware op is rescheduled; the
	// returned overhead covers reload and state restore.
	Resume(t *Task) sim.Time
	// Complete is called when the hardware op finishes.
	Complete(t *Task)
	// Remove is called when the task exits (release partitions, tables).
	Remove(t *Task)
}

// Attacher is implemented by managers that suspend tasks: they need the
// OS to call Unblock on, and New hands it to them.
type Attacher interface{ AttachOS(*OS) }

// taskChunk is how many Task records an OS carves from one array when
// no Reserve sized it for what is spawned.
const taskChunk = 8

// OS is the simulated operating system. Create with New, add tasks with
// Spawn/SpawnAt, then drive the kernel.
type OS struct {
	K   *sim.Kernel
	cfg Config

	fpga    FPGA
	tasks   []*Task
	ready   []*Task
	current *Task

	// Task records are carved from taskBuf, one array for every task a
	// Reserve announced: append-only, so a Task is never reused while its
	// job lives (a renewed OS rewinds it). arrivals holds the tasks
	// SpawnAt made, and each arrival event names its task by index there
	// to spawnFn, bound once in New.
	taskBuf  []Task
	arrivals []*Task
	spawnFn  func(i int)

	// The running segment. The CPU runs one task and a task one op phase
	// at a time, so at most one segment is in flight, and it belongs to
	// current: its parameters live here, not in a closure per segment, and
	// segEnd — segmentEnd, bound once in New — reads them when segEvt
	// fires. segEvt goes stale on firing; Cancel reports whether it was
	// still pending.
	segEvt      sim.Event
	segEnd      func(int)
	dispatchFn  func(int) // dispatch, bound once like segEnd
	segStart    sim.Time
	segKind     segKind
	segRun      sim.Time // length of the segment
	segSliceEnd sim.Time // quantum it runs under (0: run to completion)
	segPreempt  bool     // segExec only: the quantum ends before the op does

	CtxSwitches int64
	lastTask    *Task
	idleSince   sim.Time
	BusyTime    sim.Time
	trace       *EventLog

	// The two events that concern one task name it by ID, its index in
	// tasks, instead of closing over it, so their handlers are bound once
	// in New: the first segment after a dispatch, and the switch-out that
	// follows a state save.
	startFn   func(id int)
	preemptFn func(id int)
}

type segKind int

const (
	segNone segKind = iota
	segCompute
	segSetup // syscall + configuration (non-preemptable)
	segExec  // hardware execution
)

// New returns an OS over the given kernel and FPGA manager, and attaches
// itself to a manager that is an Attacher. used is the OS of a board's
// last job, or nil: used is renewed in place and returned, with no task,
// nothing ready or running and zero counters, as a new OS has them — its
// task, ready and arrival tables and the array of Task records, emptied,
// hold the new run's, and its handlers, bound to it once, serve again.
// Whatever the old run handed out of it (its Tasks, their records) is
// dead.
func New(k *sim.Kernel, cfg Config, fpga FPGA, used *OS) *OS {
	if cfg.TimeSlice <= 0 {
		cfg.TimeSlice = DefaultConfig().TimeSlice
	}
	o := used
	if o == nil { // its handlers are bound to it once, for its lifetime
		o = &OS{}
		o.segEnd, o.dispatchFn = o.segmentEnd, o.dispatch
		o.startFn = func(id int) {
			t := o.tasks[id]
			o.runSegment(t, o.sliceFor(t))
		}
		o.preemptFn = func(id int) { o.preemptNow(o.tasks[id]) }
		o.spawnFn = func(i int) {
			if err := o.admit(o.arrivals[i]); err != nil {
				panic(err)
			}
		}
	}
	*o = OS{
		K: k, cfg: cfg, fpga: fpga,
		tasks: flat.Emptied(o.tasks), ready: flat.Emptied(o.ready), taskBuf: flat.Emptied(o.taskBuf), arrivals: flat.Emptied(o.arrivals),
		segEnd: o.segEnd, dispatchFn: o.dispatchFn, startFn: o.startFn, preemptFn: o.preemptFn, spawnFn: o.spawnFn,
	}
	if a, ok := fpga.(Attacher); ok {
		a.AttachOS(o)
	}
	return o
}

// Tasks returns all tasks ever spawned.
func (o *OS) Tasks() []*Task { return o.tasks }

// Spawn creates a task at the current virtual time. The circuits named in
// the program's FPGA ops are registered with the manager (the paper's
// configuration declaration at task-load time).
//
//vfpgavet:ignore testonly -- observation hook: the hostos, core, baseline and serve tests spawn tasks at the current time
func (o *OS) Spawn(name string, priority int, program []Op) (*Task, error) {
	t := o.newTask(o.K.Now(), name, priority, program)
	if err := o.admit(t); err != nil {
		return nil, err
	}
	return t, nil
}

// Reserve sizes the OS for n more tasks: their Task records, the task
// and ready tables and the arrival table, so spawning them allocates
// nothing of the OS's own. A renewed OS (New) sizes them in the arrays
// of its last run where they are large enough. Spawning more than
// reserved is correct, one array of records at a time.
func (o *OS) Reserve(n int) {
	if cap(o.taskBuf)-len(o.taskBuf) < n {
		o.taskBuf = make([]Task, 0, n)
	}
	o.tasks = slices.Grow(o.tasks, n)
	o.ready = slices.Grow(o.ready, n)
	o.arrivals = slices.Grow(o.arrivals, n)
}

// SpawnAt schedules task creation at absolute virtual time at.
func (o *OS) SpawnAt(at sim.Time, name string, priority int, program []Op) {
	o.arrivals = append(o.arrivals, o.newTask(at, name, priority, program))
	o.K.Schedule(at, 0, o.spawnFn, len(o.arrivals)-1)
}

// newTask carves the record of a task created at time at: from the
// array Reserve sized, or from a new one of taskChunk records once that
// is used up. Records are append-only within a run: no record is handed
// out twice while its job lives; only a renewed OS (New) carves again
// from the start of its last array.
func (o *OS) newTask(at sim.Time, name string, priority int, program []Op) *Task {
	t := &flat.Carve(&o.taskBuf, 1, taskChunk)[0]
	*t = Task{Name: name, Priority: priority, program: program, Created: at, state: TaskNew}
	return t
}

// admit creates t in the OS: it takes the next ID, the circuits named in
// its program's FPGA ops are registered with the manager, and it joins
// the ready queue.
func (o *OS) admit(t *Task) error {
	if len(t.program) == 0 {
		return fmt.Errorf("hostos: task %q has an empty program", t.Name)
	}
	t.ID = TaskID(len(o.tasks))
	o.tasks = append(o.tasks, t)
	seen := make([]string, 0, 8) // distinct circuits of one program: a handful
	for _, op := range t.program {
		if op.Kind == OpFPGA && !slices.Contains(seen, op.Req.Circuit) {
			seen = append(seen, op.Req.Circuit)
			if err := o.fpga.Register(t, op.Req.Circuit); err != nil {
				return fmt.Errorf("hostos: task %q: %w", t.Name, err)
			}
		}
	}
	o.makeReady(t)
	o.maybePreemptFor(t)
	o.kick()
	return nil
}

func (o *OS) makeReady(t *Task) {
	if t.state == TaskNew {
		o.emit(t, EvSpawn)
	} else {
		o.emit(t, EvReady)
	}
	t.state = TaskReady
	t.lastChange = o.K.Now()
	o.ready = append(o.ready, t)
}

// Unblock moves a blocked task back to the ready queue. FPGA managers
// call this when a queued resource request can proceed.
func (o *OS) Unblock(t *Task) {
	if t.state != TaskBlocked {
		panic(fmt.Sprintf("hostos: Unblock of task %s in state %v", t.Name, t.state))
	}
	t.BlockWait += o.K.Now() - t.lastChange
	o.makeReady(t)
	o.maybePreemptFor(t)
	o.kick()
}

// maybePreemptFor preempts the current task if the policy is Priority and
// the newly runnable task is strictly more urgent.
func (o *OS) maybePreemptFor(t *Task) {
	if o.cfg.Policy != Priority || o.current == nil || o.current == t {
		return
	}
	if t.Priority < o.current.Priority {
		o.preemptCurrent()
	}
}

// kick schedules a dispatch if the CPU is idle. Dispatch happens through
// the kernel so that all same-time events settle first.
func (o *OS) kick() {
	if o.current != nil {
		return
	}
	o.K.Schedule(o.K.Now(), 10, o.dispatchFn, 0)
}

// pickNext removes and returns the next task to run, per policy.
func (o *OS) pickNext() *Task {
	if len(o.ready) == 0 {
		return nil
	}
	best := 0
	if o.cfg.Policy == Priority {
		for i, t := range o.ready {
			if t.Priority < o.ready[best].Priority {
				best = i
			}
		}
	}
	t := o.ready[best]
	o.ready = append(o.ready[:best], o.ready[best+1:]...)
	return t
}

func (o *OS) dispatch(int) {
	if o.current != nil {
		return
	}
	t := o.pickNext()
	if t == nil {
		return
	}
	now := o.K.Now()
	t.ReadyWait += now - t.lastChange
	t.state = TaskRunning
	t.lastChange = now
	o.emit(t, EvRun)
	if !t.started {
		t.started = true
		t.FirstRun = now
	}
	o.current = t
	start := now
	if o.lastTask != t {
		o.CtxSwitches++
		t.Overhead += o.cfg.CtxSwitch
		start += o.cfg.CtxSwitch
	}
	o.lastTask = t
	o.K.Schedule(start, 0, o.startFn, int(t.ID))
}

// sliceFor returns the absolute time at which the task's quantum expires,
// or 0 for run-to-completion policies.
func (o *OS) sliceFor(t *Task) sim.Time {
	switch o.cfg.Policy {
	case RR, Priority:
		return o.K.Now() + o.cfg.TimeSlice
	}
	return 0
}

// runSegment executes the current op of t until the op phase ends or the
// slice expires, whichever is first.
func (o *OS) runSegment(t *Task, sliceEnd sim.Time) {
	if o.current != t || t.state != TaskRunning {
		return // preempted between dispatch and segment start
	}
	if t.pc >= len(t.program) {
		o.finish(t)
		return
	}
	now := o.K.Now()
	op := &t.program[t.pc]
	switch op.Kind {
	case OpCompute:
		if t.computeLeft == 0 {
			t.computeLeft = op.D
		}
		run := t.computeLeft
		if sliceEnd > 0 && now+run > sliceEnd {
			run = sliceEnd - now
		}
		o.startSegment(segCompute, run, sliceEnd, false)

	case OpFPGA:
		if !t.fl.active {
			// New hardware op: syscall + acquire.
			setup, ready := o.fpga.Acquire(t)
			t.Acquires++
			if !ready {
				o.block(t)
				return
			}
			total := o.fpga.ExecTime(t)
			t.fl = flight{active: true, acquired: true, execLeft: total, total: total}
			cost := o.cfg.Syscall + setup
			t.Overhead += cost
			o.BusyTime += cost
			o.startSegment(segSetup, cost, sliceEnd, false)
			return
		}
		if !t.fl.acquired {
			// Resuming a preempted op: reload + restore.
			cost := o.fpga.Resume(t)
			t.fl.acquired = true
			t.Overhead += cost
			o.BusyTime += cost
			o.startSegment(segSetup, cost, sliceEnd, false)
			return
		}
		// Execute.
		run := t.fl.execLeft
		preemptible := sliceEnd > 0 && o.fpga.Preemptable(t)
		willPreempt := false
		if preemptible && now+run > sliceEnd {
			// The paper's §3 analysis: mid-op preemption is only possible
			// when the circuit's state can be saved (or recomputed).
			run = sliceEnd - now
			willPreempt = true
		}
		o.startSegment(segExec, run, sliceEnd, willPreempt)
	}
}

// startSegment records the running task's next segment and schedules its
// end, run from now.
func (o *OS) startSegment(kind segKind, run, sliceEnd sim.Time, willPreempt bool) {
	now := o.K.Now()
	o.segKind, o.segStart = kind, now
	o.segRun, o.segSliceEnd, o.segPreempt = run, sliceEnd, willPreempt
	o.segEvt = o.K.Schedule(now+run, 0, o.segEnd, 0)
}

// segmentEnd fires when the running segment ends undisturbed: it charges
// the segment to the task and moves on to the next phase, op or task.
func (o *OS) segmentEnd(int) {
	// Copied out first: the calls below may start the next segment.
	t, run, sliceEnd := o.current, o.segRun, o.segSliceEnd
	switch o.segKind {
	case segCompute:
		t.computeLeft -= run
		t.CPUTime += run
		o.BusyTime += run
		if t.computeLeft == 0 {
			t.pc++
			o.continueOrYield(t, sliceEnd)
			return
		}
		t.Preemptions++
		o.preemptNow(t)

	case segSetup:
		o.runSegment(t, o.extendIfExpired(t, sliceEnd))

	case segExec:
		t.HWTime += run
		o.BusyTime += run
		if !o.segPreempt {
			t.fl = flight{}
			o.fpga.Complete(t)
			t.pc++
			o.continueOrYield(t, sliceEnd)
			return
		}
		t.fl.execLeft -= run
		if len(o.ready) == 0 {
			// Nobody else is runnable: keep the circuit going with a
			// fresh quantum instead of preempting into thin air (which
			// would livelock rollback-mode circuits longer than a slice).
			o.runSegment(t, o.sliceFor(t))
			return
		}
		o.saveAndSwitch(t, t.fl.total-t.fl.execLeft)
	}
}

// saveAndSwitch preempts t's in-flight hardware op after done of its
// execution: the manager saves (or abandons) the circuit state, and the
// task leaves the CPU once that overhead has run.
func (o *OS) saveAndSwitch(t *Task, done sim.Time) {
	overhead, preserved := o.fpga.Preempt(t, done, t.fl.total)
	t.fl.execLeft = t.fl.total - preserved
	t.fl.acquired = false
	t.Preemptions++
	t.Overhead += overhead
	o.BusyTime += overhead
	// State save runs before the switch completes.
	o.K.Schedule(o.K.Now()+overhead, 0, o.preemptFn, int(t.ID))
}

// extendIfExpired grants a fresh quantum when a non-preemptable setup
// phase (configuration download, state restore) consumed the entire
// slice; otherwise the original quantum stands. The extension guarantees
// forward progress when downloads exceed the time slice — the pathology
// the paper warns about in §3 — without refreshing the quantum on every
// cheap system call.
func (o *OS) extendIfExpired(t *Task, sliceEnd sim.Time) sim.Time {
	if sliceEnd > 0 && o.K.Now() >= sliceEnd {
		return o.sliceFor(t)
	}
	return sliceEnd
}

// continueOrYield decides what happens after an op completes: keep running
// within the slice, or yield at the quantum boundary.
func (o *OS) continueOrYield(t *Task, sliceEnd sim.Time) {
	if t.pc >= len(t.program) {
		o.finish(t)
		return
	}
	now := o.K.Now()
	if sliceEnd > 0 && now >= sliceEnd {
		if len(o.ready) > 0 {
			o.preemptNow(t)
			return
		}
		sliceEnd = o.sliceFor(t) // nobody waiting: grant a fresh quantum
	}
	o.runSegment(t, sliceEnd)
}

// preemptCurrent preempts the running task immediately (priority policy).
// Non-preemptable phases (setup, non-preemptable exec) finish first: the
// segment-end path re-dispatches and the scheduler picks by priority.
func (o *OS) preemptCurrent() {
	t := o.current
	if t == nil {
		return
	}
	switch o.segKind {
	case segCompute:
		if o.K.Cancel(o.segEvt) {
			ran := o.K.Now() - o.segStart
			t.computeLeft -= ran
			t.CPUTime += ran
			o.BusyTime += ran
		}
		t.Preemptions++
		o.preemptNow(t)
	case segExec:
		if o.fpga.Preemptable(t) && o.K.Cancel(o.segEvt) {
			ran := o.K.Now() - o.segStart
			t.HWTime += ran
			o.BusyTime += ran
			o.saveAndSwitch(t, t.fl.total-t.fl.execLeft+ran)
		}
		// Non-preemptable: let the op finish; dispatch will re-sort.
	case segSetup:
		// OS code: finishes, then the scheduler re-decides.
	}
}

// preemptNow moves the running task back to ready and dispatches.
func (o *OS) preemptNow(t *Task) {
	if o.current != t {
		return
	}
	o.current = nil
	o.segKind = segNone
	o.makeReady(t)
	o.kick()
}

// block parks the running task waiting for the FPGA manager.
func (o *OS) block(t *Task) {
	o.current = nil
	o.segKind = segNone
	t.state = TaskBlocked
	t.lastChange = o.K.Now()
	o.emit(t, EvBlock)
	o.kick()
}

// finish completes a task.
func (o *OS) finish(t *Task) {
	o.current = nil
	o.segKind = segNone
	t.state = TaskDone
	t.Finished = o.K.Now()
	o.emit(t, EvDone)
	o.fpga.Remove(t)
	o.kick()
}

// AllDone reports whether every spawned task has completed.
func (o *OS) AllDone() bool {
	for _, t := range o.tasks {
		if t.state != TaskDone {
			return false
		}
	}
	return len(o.tasks) > 0
}

// Makespan returns the latest completion time across all tasks.
func (o *OS) Makespan() sim.Time {
	var m sim.Time
	for _, t := range o.tasks {
		if t.Finished > m {
			m = t.Finished
		}
	}
	return m
}
