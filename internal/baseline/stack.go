package baseline

import (
	"errors"

	"repro/internal/compile"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/hostos"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// ManagerFunc builds the hostos.FPGA of a stack over its kernel and
// engines, and returns what the manager downloads at initialization
// (non-zero for overlay and merged). circuits are the job's, compiled,
// in set order. used is the manager of the board's last job, dead, for
// the constructor to renew in place, or nil: the constructor builds a
// new one then, and from a manager of another kind too. NewManager
// returns the table's by-name ones (manager.go); Partition, Overlay and
// Paged build an experiment's own configuration.
type ManagerFunc func(k *sim.Kernel, engines []*core.Engine, circuits []*compile.Circuit, used hostos.FPGA) (hostos.FPGA, sim.Time, error)

// Stack is one Virtual FPGA: a clock, the device engines, the manager
// that multiplexes them and the host OS that schedules tasks onto it.
// Callers read results off the fields. A Stack is single-goroutine
// state, like everything it holds.
type Stack struct {
	K        *sim.Kernel
	Engines  []*core.Engine
	Mgr      hostos.FPGA
	OS       *hostos.OS
	InitCost sim.Time // the manager's initialization download

	sched *hostos.EventLog // nil until Trace
	devs  []*core.DeviceLog
}

// NewStack assembles a stack in the one order every golden pins: each
// engine is created, armed with its own stream of the fault plan
// (engine i draws from faults.Derive(i), so adding engines never
// perturbs the faults earlier ones see) and given the set's compiled
// circuits; only then is the manager constructed — an initialization
// download is a device operation like any other and draws from the
// plan — and the host OS attached over it. circs are set.Circuits
// compiled in order (core.CompileSet) and are shared by all engines; a
// nil plan arms nothing; an engine count below one builds one.
//
// used is the dead stack of an earlier run, or nil. When it has the
// engine count and the device geometry asked for, the new stack is
// built on its hardware and in its memory: the kernel, reset, each
// engine's device, erased, and the engines, the manager and the host OS
// renewed in place (core.NewEngine, mk, hostos.New) — the parts whose
// emptied state is the state a new one has. Otherwise, and when used is
// nil, everything is built new, as the managers build new from nil or a
// manager of another kind. Running set on a renewed stack is
// indistinguishable from running it on a new one (a manager that
// downloads at initialization does so again, into the blank device; a
// renewed one keeps its tables' arrays, emptied, its column map's span
// objects and reseeds its random stream). used is dead once NewStack is
// called, whether or not it succeeds: nothing read off it — a task, an
// engine's table, a manager's column map — may be kept past the call,
// and what a run delivers is copied out before.
func NewStack(opt core.Options, engines int, osCfg hostos.Config, faults *fault.Plan,
	set *workload.Set, circs []*compile.Circuit, mk ManagerFunc, used *Stack) (*Stack, error) {

	n := max(engines, 1)
	s := used
	if s == nil || len(s.Engines) != n || s.Engines[0].Dev.Geometry() != opt.Geometry {
		s = &Stack{K: sim.New(), Engines: make([]*core.Engine, n)}
	} else {
		s.K.Reset()
		for _, e := range s.Engines {
			e.Dev.Erase()
		}
	}
	// The manager and the OS stay the last run's until the new ones are
	// built over the engines: mk and hostos.New renew them.
	*s = Stack{K: s.K, Engines: s.Engines, Mgr: s.Mgr, OS: s.OS}
	for i, e := range s.Engines {
		e = core.NewEngine(opt, e)
		if faults != nil {
			e.Ledger().InjectFaults(fault.NewInjector(faults.Derive(uint64(i))))
		}
		fill(e, set, circs)
		s.Engines[i] = e
	}
	var err error
	if s.Mgr, s.InitCost, err = mk(s.K, s.Engines, circs, s.Mgr); err != nil {
		return nil, err
	}
	s.OS = hostos.New(s.K, osCfg, s.Mgr, s.OS)
	return s, nil
}

// fill gives the engine's empty library exactly the set's circuits, by
// name.
func fill(e *core.Engine, set *workload.Set, circs []*compile.Circuit) {
	for i, nl := range set.Circuits {
		e.Lib[nl.Name] = circs[i]
	}
}

// Run spawns the set's tasks and runs the kernel dry.
func (s *Stack) Run(set *workload.Set) error {
	set.Spawn(s.OS)
	s.K.Run()
	if !s.OS.AllDone() {
		return errors.New("baseline: simulation ended with unfinished tasks")
	}
	return nil
}

// Trace attaches a fresh scheduler log and one device log per engine;
// call it before Run. Gantt renders the scheduler's log and Timeline
// merges all of them.
func (s *Stack) Trace() {
	s.sched = hostos.NewEventLog()
	s.OS.AttachTrace(s.sched)
	s.devs = nil
	for _, e := range s.Engines {
		dl := core.NewDeviceLog()
		e.Ledger().AttachLog(dl)
		s.devs = append(s.devs, dl)
	}
}

// Gantt renders the scheduler log attached by Trace as a width-column
// chart over the run's makespan; "" on a stack Trace was not called on.
func (s *Stack) Gantt(width int) string {
	if s.sched == nil {
		return ""
	}
	return s.sched.Gantt(width, s.OS.Makespan())
}

// Timeline merges what the logs attached by Trace recorded into one
// time-ordered timeline.
func (s *Stack) Timeline() *trace.Timeline {
	return core.MergeTimeline(s.sched, s.devs...)
}

// Check audits the live device state the manager leaves behind — its
// column map, when it keeps one, and every device under it — and returns
// the first rule broken, or nil.
func (s *Stack) Check() error {
	if c, ok := s.Mgr.(interface{ Check() error }); ok {
		return c.Check()
	}
	return nil
}
