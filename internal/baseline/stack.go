package baseline

import (
	"errors"

	"repro/internal/compile"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/hostos"
	"repro/internal/lint"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// ManagerFunc builds the hostos.FPGA of a stack over its kernel and
// engines, and returns what the manager downloads at initialization
// (non-zero for overlay and merged). NewManager returns the nine
// by-name ones; an experiment with a configuration of its own passes a
// closure over the core constructor. With a non-nil error the manager
// returned is ignored, so a closure may hand a failed constructor's
// result straight back.
type ManagerFunc func(k *sim.Kernel, engines []*core.Engine) (hostos.FPGA, sim.Time, error)

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

	images []*core.PristineImage // per engine; nil until CapturePristine
	sched  *hostos.EventLog      // nil until Trace
	devs   []*core.DeviceLog
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
func NewStack(opt core.Options, engines int, osCfg hostos.Config, faults *fault.Plan,
	set *workload.Set, circs []*compile.Circuit, mk ManagerFunc) (*Stack, error) {

	s := &Stack{K: sim.New()}
	for i := 0; i < max(engines, 1); i++ {
		e := core.NewEngine(opt)
		if faults != nil {
			e.Ledger().InjectFaults(fault.NewInjector(faults.Derive(uint64(i))))
		}
		fill(e, set, circs)
		s.Engines = append(s.Engines, e)
	}
	var err error
	if s.Mgr, s.InitCost, err = mk(s.K, s.Engines); err != nil {
		return nil, err
	}
	s.OS = hostos.New(s.K, osCfg, s.Mgr)
	return s, nil
}

// fill makes the engine's library exactly the set's circuits, by name.
func fill(e *core.Engine, set *workload.Set, circs []*compile.Circuit) {
	clear(e.Lib)
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
// call it before Run. It returns the scheduler's log, which renders the
// Gantt chart; Timeline merges all of them.
func (s *Stack) Trace() *hostos.EventLog {
	s.sched = hostos.NewEventLog(0)
	s.OS.AttachTrace(s.sched)
	s.devs = nil
	for _, e := range s.Engines {
		dl := core.NewDeviceLog(0)
		e.Ledger().AttachLog(dl)
		s.devs = append(s.devs, dl)
	}
	return s.sched
}

// Timeline merges what the logs attached by Trace recorded into one
// time-ordered timeline.
func (s *Stack) Timeline() *trace.Timeline {
	return core.MergeTimeline(s.sched, s.devs...)
}

// Lint audits the live device state through the manager's ledger view
// and returns the diagnostics at warning severity and above.
func (s *Stack) Lint() ([]lint.Diagnostic, error) {
	lt, ok := s.Mgr.(core.LintTargeter)
	if !ok {
		return nil, nil
	}
	return lint.Run(lt.LintTargets(), lint.Options{MinSeverity: lint.Warning})
}

// CapturePristine records each engine's post-construction image for
// Reset. Call it before tracing or running anything: the image must be
// the state a fresh build presents to its first job. Only a caller that
// will Reset pays for the snapshots.
func (s *Stack) CapturePristine() {
	s.images = s.images[:0]
	for _, e := range s.Engines {
		s.images = append(s.images, e.CapturePristine())
	}
}

// Reset returns the whole stack to the captured state and points the
// engine libraries at the next set's circuits; running that set is then
// indistinguishable from running it on a freshly built stack. A manager
// that baked its construction set into device state (overlay, merged)
// needs the same circuits again — that check is the caller's.
func (s *Stack) Reset(set *workload.Set, circs []*compile.Circuit) error {
	r, ok := s.Mgr.(interface{ ResetForJob() })
	if !ok || s.images == nil {
		return errors.New("baseline: stack cannot warm-reset")
	}
	s.K.Reset()
	for i, e := range s.Engines {
		if err := e.Ledger().ResetForJob(s.images[i]); err != nil {
			return err
		}
		fill(e, set, circs)
	}
	r.ResetForJob()
	s.OS.Reset()
	s.sched, s.devs = nil, nil
	return nil
}
