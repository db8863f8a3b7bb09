// Warm boards: the simulated stack (kernel, engines, manager, host OS)
// is expensive to build — place-and-route compilation dominates — and,
// per job, almost all of it is rebuilt into an identical pristine state.
// A boardRuntime builds the stack once, captures a per-engine pristine
// image (fabric snapshot, metrics, pins, residents, fault-injector
// position), and resets to that image between jobs instead of
// rebuilding: the moral equivalent of restoring a saved full-device
// configuration instead of re-deriving it, the virtualization outlook
// the paper's §2 sketches. Results are bit-for-bit those of a fresh
// rebuild — the equivalence suite in warm_test.go pins that — so warm
// reuse is purely a service-time optimization.

package serve

import (
	"fmt"
	"sort"

	"repro/internal/baseline"
	"repro/internal/compile"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/hostos"
	"repro/internal/lint"
	"repro/internal/sim"
	"repro/internal/workload"
)

// jobResetter is the warm-reset hook every manager implements: return
// the manager's own bookkeeping to its post-construction state. Device
// and metrics state is reset separately via Ledger.ResetForJob.
type jobResetter interface{ ResetForJob() }

// boardRuntime is one board's resident simulated stack, reused across
// jobs. It is owned by the board's worker goroutine exclusively; nothing
// in it is safe for concurrent use.
type boardRuntime struct {
	bc      BoardConfig
	k       *sim.Kernel
	engines []*core.Engine
	images  []*core.PristineImage
	mgr     hostos.FPGA
	osim    *hostos.OS

	// setDependent marks managers that bake the construction job's
	// circuits into device state (overlay, merged): warm reuse needs the
	// next job to compile to exactly the same circuits. names and circs
	// record what this runtime was built for, in set order.
	setDependent bool
	names        []string
	circs        []*compile.Circuit
}

// boardOptions maps a board config onto engine options.
func boardOptions(bc BoardConfig) core.Options {
	opt := core.DefaultOptions()
	opt.Geometry.Cols, opt.Geometry.Rows = bc.Cols, bc.Rows
	opt.Seed = bc.Seed
	return opt
}

// compileSet compiles every circuit of the set through the shared strip
// cache, with the same per-circuit seeds the engines have always used,
// and returns them in set order. The cache canonicalizes: identical
// netlists compiled with identical options return the same *Circuit.
func compileSet(cache *compile.StripCache, bc BoardConfig, set *workload.Set) ([]*compile.Circuit, error) {
	opt := boardOptions(bc)
	circs := make([]*compile.Circuit, 0, len(set.Circuits))
	for i, nl := range set.Circuits {
		tm := opt.Timing
		c, err := cache.CompileStrip(nl, opt.Geometry.Rows, opt.Geometry.TracksPerChannel,
			compile.Options{Seed: opt.Seed + uint64(i), Timing: &tm})
		if err != nil {
			return nil, fmt.Errorf("serve: compile %s: %w", nl.Name, err)
		}
		circs = append(circs, c)
	}
	return circs, nil
}

// SpecWidth returns the widest compiled strip among the spec's circuits
// on the given board geometry — the placement-relevant footprint of a
// job (its rectangle width in the strip-packing-with-delays view). The
// circuits come from the shared netlist library and their compiles from
// the shared cache, so a repeated call for the same spec generates the
// spec's task programs and looks the rest up: no netlist is rebuilt and
// nothing is compiled.
func SpecWidth(cache *compile.StripCache, bc BoardConfig, spec *workload.Spec) (int, error) {
	set, err := spec.Build()
	if err != nil {
		return 0, err
	}
	circs, err := compileSet(cache, bc, set)
	if err != nil {
		return 0, err
	}
	w := 0
	for _, c := range circs {
		if cw, _ := c.Footprint(); cw > w {
			w = cw
		}
	}
	return w, nil
}

// buildRuntime constructs the full simulated stack for one board config
// and circuit set — exactly the construction the per-job rebuild used to
// do — and captures each engine's pristine image for later warm resets.
// The images are taken after manager construction (overlay and merged
// configure the device then) and before any tracing or spawning, so a
// restore lands on the state a fresh build would present to its first
// job.
func buildRuntime(bc BoardConfig, set *workload.Set, circs []*compile.Circuit) (*boardRuntime, error) {
	opt := boardOptions(bc)
	k := sim.New()
	names := set.CircuitNames()

	engIdx := 0
	newEngine := func() *core.Engine {
		e := core.NewEngine(opt)
		if bc.Faults != nil {
			// Each engine derives its own stream from the board plan, keyed
			// by engine index only: which faults a job sees depends on the
			// plan and the job's own op sequence, never on queue order.
			plan := bc.Faults.Derive(uint64(engIdx))
			e.Ledger().InjectFaults(fault.NewInjector(plan))
		}
		engIdx++
		for i, name := range names {
			e.Lib[name] = circs[i]
		}
		return e
	}

	engines := []*core.Engine{newEngine()}
	if bc.Manager == "multi" {
		for i := 1; i < bc.SubBoards; i++ {
			engines = append(engines, newEngine())
		}
	}
	mgr, _, err := baseline.NewManager(bc.Manager, k, engines, names, bc.Seed)
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	policy, err := hostos.ParsePolicy(bc.Sched)
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	osim := hostos.New(k, hostos.Config{
		Policy: policy, TimeSlice: bc.Slice, CtxSwitch: 50 * sim.Microsecond, Syscall: 10 * sim.Microsecond,
	}, mgr)

	rt := &boardRuntime{
		bc: bc, k: k, engines: engines, mgr: mgr, osim: osim,
		setDependent: bc.Manager == "overlay" || bc.Manager == "merged",
		names:        names,
		circs:        append([]*compile.Circuit(nil), circs...),
	}
	for _, eng := range engines {
		rt.images = append(rt.images, eng.CapturePristine())
	}
	return rt, nil
}

// compatible reports whether this runtime, built for a previous job, can
// be warm-reset for a job over the given circuit set. Set-independent
// managers always can: the reset swaps the circuit library wholesale.
// Overlay and merged configured the device from the construction set, so
// they need the same circuit names compiling to the same circuits (the
// strip cache makes that a pointer comparison).
func (rt *boardRuntime) compatible(set *workload.Set, circs []*compile.Circuit) bool {
	if !rt.setDependent {
		return true
	}
	if len(circs) != len(rt.circs) {
		return false
	}
	for i, c := range circs {
		if rt.circs[i] != c || rt.names[i] != set.Circuits[i].Name {
			return false
		}
	}
	return true
}

// reset returns the whole stack to the pristine state buildRuntime
// captured, then points the engine libraries at the new job's circuits.
// After it returns, running the job is indistinguishable from running it
// on a freshly built board.
func (rt *boardRuntime) reset(set *workload.Set, circs []*compile.Circuit) error {
	rt.k.Reset()
	for i, eng := range rt.engines {
		if err := eng.Ledger().ResetForJob(rt.images[i]); err != nil {
			return err
		}
		lib := make(map[string]*compile.Circuit, len(circs))
		for j, nl := range set.Circuits {
			lib[nl.Name] = circs[j]
		}
		eng.Lib = lib
	}
	r, ok := rt.mgr.(jobResetter)
	if !ok {
		return fmt.Errorf("serve: manager %q cannot warm-reset", rt.bc.Manager)
	}
	r.ResetForJob()
	rt.osim.Reset()
	return nil
}

// run executes one job on the runtime and returns the wire-form result.
// warm asks for a snapshot-restore reset first (the runtime already ran
// a job); a fresh runtime runs cold, with no reset. Called from the
// board's worker goroutine only.
func (rt *boardRuntime) run(set *workload.Set, circs []*compile.Circuit, withTrace, warm bool) (res *JobResult, err error) {
	// A panicking job must fail, not take the daemon down with it. The
	// caller discards the runtime on any error, so recovery cannot leak
	// corrupted state into the next job. A fault escalation stays typed
	// through the recover so the pool can quarantine the board.
	defer func() {
		if r := recover(); r != nil {
			if esc, ok := fault.AsEscalation(r); ok {
				res, err = nil, esc
				return
			}
			res, err = nil, fmt.Errorf("serve: job panicked: %v", r)
		}
	}()
	if warm {
		if err := rt.reset(set, circs); err != nil {
			return nil, err
		}
	}

	var tlog *hostos.EventLog
	var devLogs []*core.DeviceLog
	if withTrace {
		tlog = hostos.NewEventLog(0)
		rt.osim.AttachTrace(tlog)
		for _, eng := range rt.engines {
			dl := core.NewDeviceLog(0)
			eng.Ledger().AttachLog(dl)
			devLogs = append(devLogs, dl)
		}
	}

	set.Spawn(rt.osim)
	rt.k.Run()
	if !rt.osim.AllDone() {
		return nil, fmt.Errorf("serve: simulation ended with unfinished tasks")
	}

	res = &JobResult{
		Makespan:    rt.osim.Makespan(),
		CtxSwitches: rt.osim.CtxSwitches,
		LintClean:   true,
	}
	for _, t := range rt.osim.Tasks() {
		res.Tasks = append(res.Tasks, TaskResult{
			Name:        t.Name,
			Turnaround:  t.Turnaround(),
			CPUTime:     t.CPUTime,
			HWTime:      t.HWTime,
			Overhead:    t.Overhead,
			ReadyWait:   t.ReadyWait,
			BlockWait:   t.BlockWait,
			Preemptions: t.Preemptions,
			Acquires:    t.Acquires,
		})
	}
	for _, eng := range rt.engines {
		res.Metrics = append(res.Metrics, eng.M.Snapshot(rt.k.Now()))
	}
	if lt, ok := rt.mgr.(core.LintTargeter); ok {
		diags, err := lint.Run(lt.LintTargets(), lint.Options{MinSeverity: lint.Warning})
		if err != nil {
			return nil, err
		}
		sort.SliceStable(diags, func(i, j int) bool { return diags[i].Pass < diags[j].Pass })
		for _, d := range diags {
			res.LintDiags = append(res.LintDiags, d.String())
		}
		res.LintClean = !lint.HasErrors(diags)
	}
	if withTrace {
		res.Timeline = core.MergeTimeline(tlog, devLogs...).Events
	}
	return res, nil
}
