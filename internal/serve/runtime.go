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
	"repro/internal/workload"
)

// boardRuntime is one board's resident stack, reused across jobs. It is
// owned by the board's worker goroutine exclusively; nothing in it is
// safe for concurrent use.
type boardRuntime struct {
	*baseline.Stack

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

// compileSet compiles every circuit of the set for the board through the
// shared strip cache, in set order. The cache canonicalizes: identical
// netlists compiled with identical options return the same *Circuit.
func compileSet(cache *compile.StripCache, bc BoardConfig, set *workload.Set) ([]*compile.Circuit, error) {
	circs, err := core.CompileSet(cache, boardOptions(bc), set.Circuits)
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
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

// buildRuntime assembles the stack for one board config and circuit set
// and captures its pristine images for later warm resets.
func buildRuntime(bc BoardConfig, set *workload.Set, circs []*compile.Circuit) (*boardRuntime, error) {
	osCfg := hostos.DefaultConfig()
	osCfg.TimeSlice = bc.Slice
	var err error
	if osCfg.Policy, err = hostos.ParsePolicy(bc.Sched); err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	engines := 1
	if bc.Manager == "multi" {
		engines = bc.SubBoards
	}
	names := set.CircuitNames()
	st, err := baseline.NewStack(boardOptions(bc), engines, osCfg, bc.Faults, set, circs,
		baseline.NewManager(bc.Manager, names, bc.Seed))
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	st.CapturePristine()
	return &boardRuntime{
		Stack:        st,
		setDependent: bc.Manager == "overlay" || bc.Manager == "merged",
		names:        names,
		circs:        circs,
	}, nil
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

// recoverJob, deferred, fails a panicking job instead of taking the
// daemon down with it. The caller discards the runtime on any error, so
// recovery cannot leak corrupted state into the next job. A fault
// escalation stays typed through the recover so the pool can quarantine
// the board. Deferred by run for the simulation and again by its callers
// to cover a panicking constructor on the build path.
func recoverJob(res **JobResult, err *error) {
	if r := recover(); r != nil {
		*res, *err = nil, fmt.Errorf("serve: job panicked: %v", r)
		if esc, ok := fault.AsEscalation(r); ok {
			*err = esc
		}
	}
}

// run executes one job on the runtime and returns the wire-form result.
// warm asks for a snapshot-restore reset first (the runtime already ran
// a job); a fresh runtime runs cold, with no reset. Called from the
// board's worker goroutine only.
func (rt *boardRuntime) run(set *workload.Set, circs []*compile.Circuit, withTrace, warm bool) (res *JobResult, err error) {
	defer recoverJob(&res, &err)
	if warm {
		if err := rt.Reset(set, circs); err != nil {
			return nil, err
		}
	}
	if withTrace {
		rt.Trace()
	}
	if err := rt.Run(set); err != nil {
		return nil, err
	}

	res = &JobResult{
		Makespan:    rt.OS.Makespan(),
		CtxSwitches: rt.OS.CtxSwitches,
		LintClean:   true,
	}
	for _, t := range rt.OS.Tasks() {
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
	for _, eng := range rt.Engines {
		res.Metrics = append(res.Metrics, eng.M.Snapshot(rt.K.Now()))
	}
	diags, err := rt.Lint()
	if err != nil {
		return nil, err
	}
	sort.SliceStable(diags, func(i, j int) bool { return diags[i].Pass < diags[j].Pass })
	for _, d := range diags {
		res.LintDiags = append(res.LintDiags, d.String())
	}
	res.LintClean = !lint.HasErrors(diags)
	if withTrace {
		res.Timeline = rt.Timeline().Events
	}
	return res, nil
}
