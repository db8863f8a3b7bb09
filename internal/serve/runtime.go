// Warm boards: between two jobs a board is nothing but hardware the next
// download overwrites and the memory of a dead stack, so a board keeps
// exactly that — each engine's device, erased, the kernel's event
// arrays, reset, and the engines, the manager and the host OS, renewed
// in place with their tables emptied — and builds the stack of every job
// through the one path a first job takes, baseline.NewStack's. A
// job on recycled hardware is a job on new hardware by construction; the
// equivalence suite in warm_test.go holds the results bit-for-bit equal,
// and no result a job delivers points into what the next job renews.
// What makes a warm job fast is what it does not repeat: the shared strip
// cache keeps place and route off it, the pool's set cache
// (workload.SetCache) the generation of a task set it has built before,
// and the renewed stack most of the allocations of its bookkeeping.

package serve

import (
	"fmt"

	"repro/internal/baseline"
	"repro/internal/compile"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/hostos"
	"repro/internal/workload"
)

// Options maps the board config onto engine options.
func (bc *BoardConfig) Options() core.Options {
	opt := core.DefaultOptions()
	opt.Geometry.Cols, opt.Geometry.Rows = bc.Cols, bc.Rows
	opt.Seed = bc.Seed
	return opt
}

// compileSet compiles every circuit of the set for the board through the
// shared strip cache, returned in set order. The cache canonicalizes:
// identical netlists compiled with identical options return the same
// *Circuit.
func compileSet(cache *compile.StripCache, bc BoardConfig, set *workload.Set) ([]*compile.Circuit, error) {
	circs, err := core.CompileSet(cache, bc.Options(), set.Circuits)
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
// nothing is compiled. It builds the set fresh, with no SetCache, though
// the width needs only the circuits: a faster call — a circuits-only
// variant was measured twice, a cached set is the same — returns
// fleet.Submit soon enough to shift the queue depths packing routes on
// (fleet_open's virtual_ms_per_op up 2–7 % on six of six seeds), a
// routing change to be made as one, once fleet_open counts queue wait
// (ROADMAP item 10(a)).
func SpecWidth(cache *compile.StripCache, bc BoardConfig, spec *workload.Spec) (int, error) {
	_, circs, err := CompileJob(nil, cache, bc, spec)
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

// buildStack assembles the stack for one job on a board: on the
// hardware of prev, the stack of the board's previous job, or on new
// hardware when prev is nil. prev is dead afterwards either way.
func buildStack(prev *baseline.Stack, bc BoardConfig, set *workload.Set, circs []*compile.Circuit) (*baseline.Stack, error) {
	osCfg := hostos.DefaultConfig()
	osCfg.TimeSlice = bc.Slice
	var err error
	if osCfg.Policy, err = hostos.ParsePolicy(bc.Sched); err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	st, err := baseline.NewStack(bc.Options(), baseline.Engines(bc.Manager, bc.SubBoards), osCfg, bc.Faults,
		set, circs, baseline.NewManager(bc.Manager), prev)
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	return st, nil
}

// recoverJob, deferred by each half of the job body, fails a panicking
// job instead of taking the daemon down with it. The caller discards the
// stack on any error, so recovery cannot leak corrupted state into the
// next job. A fault escalation stays typed through the recover so the
// pool can quarantine the board.
func recoverJob(err *error) {
	if r := recover(); r != nil {
		*err = fmt.Errorf("serve: job panicked: %v", r)
		if esc, ok := fault.AsEscalation(r); ok {
			*err = esc
		}
	}
}

// runSpec is the one job body, a board's and the direct runner's alike:
// CompileJob, then ExecuteJob on the hardware of prev, the stack of the
// board's previous job (new hardware when prev is nil). st is the stack
// the job ran on, nil when none was built; prev is dead once a stack is
// built on its hardware.
func runSpec(sets *workload.SetCache, cache *compile.StripCache, bc BoardConfig, prev *baseline.Stack, spec *workload.Spec, withTrace bool) (st *baseline.Stack, res *JobResult, err error) {
	set, circs, err := CompileJob(sets, cache, bc, spec)
	if err != nil {
		return nil, nil, err
	}
	return ExecuteJob(bc, prev, set, circs, withTrace)
}

// CompileJob is the first half of the job body: it builds spec's task
// set through sets (nil builds it fresh) and compiles its circuits for
// the board through cache (nil compiles without one), returned in set
// order. The set may be shared with other jobs: it is read-only. A panic
// on the way, in any of the circuits' compiles, is the job's error.
func CompileJob(sets *workload.SetCache, cache *compile.StripCache, bc BoardConfig, spec *workload.Spec) (set *workload.Set, circs []*compile.Circuit, err error) {
	defer recoverJob(&err)
	if set, err = sets.Build(spec); err != nil {
		return nil, nil, err
	}
	if circs, err = compileSet(cache, bc, set); err != nil {
		return nil, nil, err
	}
	return set, circs, nil
}

// ExecuteJob is the second half of the job body: it builds the stack on
// the hardware of prev (new hardware when prev is nil), runs set on it
// and audits the device state the run leaves. circs are set's circuits
// as CompileJob returns them. A panic anywhere on the way — a
// constructor, a fault escalation mid-run — is the job's error. st is
// the stack the job ran on, nil when none was built.
func ExecuteJob(bc BoardConfig, prev *baseline.Stack, set *workload.Set, circs []*compile.Circuit, withTrace bool) (st *baseline.Stack, res *JobResult, err error) {
	defer recoverJob(&err)
	if st, err = buildStack(prev, bc, set, circs); err != nil {
		return nil, nil, err
	}
	res, err = run(st, set, withTrace)
	return st, res, err
}

// run executes one job on a stack built for it and returns the
// wire-form result. Called from the board's worker goroutine only.
func run(st *baseline.Stack, set *workload.Set, withTrace bool) (*JobResult, error) {
	if withTrace {
		st.Trace()
	}
	if err := st.Run(set); err != nil {
		return nil, err
	}

	tasks := st.OS.Tasks()
	res := &JobResult{
		Tasks:       make([]TaskResult, 0, len(tasks)),
		Makespan:    st.OS.Makespan(),
		CtxSwitches: st.OS.CtxSwitches,
		Metrics:     make([]core.MetricsSnapshot, 0, len(st.Engines)),
		LintClean:   true,
	}
	for _, t := range tasks {
		res.Tasks = append(res.Tasks, TaskResult{Name: t.Name, Turnaround: t.Turnaround(), TaskStats: t.TaskStats})
	}
	for _, eng := range st.Engines {
		res.Metrics = append(res.Metrics, eng.M.Snapshot(st.K.Now()))
	}
	if err := st.Check(); err != nil {
		res.LintClean, res.LintDiags = false, []string{err.Error()}
	}
	if withTrace {
		res.Timeline = st.Timeline().Events
	}
	return res, nil
}
