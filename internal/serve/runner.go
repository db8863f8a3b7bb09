package serve

import (
	"encoding/json"
	"fmt"
	"slices"

	"repro/internal/baseline"
	"repro/internal/compile"
	"repro/internal/fault"
	"repro/internal/hostos"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Managers lists the hostos.FPGA implementations a board can run, in the
// order of baseline's manager table.
var Managers = baseline.Managers()

// BoardConfig describes one simulated board of the pool. The simulated
// hardware is built from this config once and erased between jobs; the
// stack over it is built for every job as on new hardware, in the last
// job's memory (see runtime.go), so per-job
// results are exactly what a direct hostos run of the same workload
// produces, independent of queue order and of whatever ran on the board
// before.
type BoardConfig struct {
	// Manager is one of Managers.
	Manager string
	// Cols and Rows shape the device.
	Cols, Rows int
	// SubBoards is the device count for a manager that takes one engine
	// per sub-board (multi), at least 1 there (ignored otherwise).
	SubBoards int
	// Sched and Slice configure the host OS scheduler.
	Sched string
	Slice sim.Time
	// Seed is the board's compilation seed (the engine's Options.Seed).
	Seed uint64
	// QueueDepth bounds the board's job queue; submissions beyond it get
	// 429 backpressure.
	QueueDepth int
	// Faults, when non-nil, arms this board's engines with the fault
	// plan (each engine derives its own stream from it). Every job's
	// engines are armed with a new injector before the manager is built,
	// so which faults a job sees depends only on the plan and the job's
	// own op sequence, never on queue order.
	Faults *fault.Plan
}

// DefaultBoardConfig returns a dynamic-loader board on the default
// 32x16 device.
func DefaultBoardConfig() BoardConfig {
	return BoardConfig{
		Manager: "dynamic", Cols: 32, Rows: 16, SubBoards: 2,
		Sched: "rr", Slice: 10 * sim.Millisecond, Seed: 1, QueueDepth: 16,
	}
}

// Validate rejects configs the runner cannot build.
func (bc *BoardConfig) Validate() error {
	if !slices.Contains(Managers, bc.Manager) {
		return fmt.Errorf("serve: unknown manager %q (have %v)", bc.Manager, Managers)
	}
	if _, err := hostos.ParsePolicy(bc.Sched); err != nil {
		return fmt.Errorf("serve: unknown scheduler %q", bc.Sched)
	}
	if baseline.Engines(bc.Manager, bc.SubBoards) < 1 {
		return fmt.Errorf("serve: %s manager needs at least one sub-board, have %d", bc.Manager, bc.SubBoards)
	}
	if bc.Cols <= 0 || bc.Rows <= 0 {
		return fmt.Errorf("serve: bad geometry %dx%d", bc.Cols, bc.Rows)
	}
	if bc.QueueDepth <= 0 {
		return fmt.Errorf("serve: queue depth must be positive")
	}
	return nil
}

// NewDirectRunner returns a workload.RunFunc that executes each spec on
// a board built from bc: the same cold path as runJob, memoized by the
// spec's canonical JSON. Memoization is sound because a job's result is
// a pure function of (config, spec) — the warm-board equivalence suite
// pins that — so a trace with repeated specs costs one simulation per
// distinct spec. A fault escalation is a job outcome (Failed with the
// typed kind); any other error is infrastructure and aborts the replay.
// The returned func keeps single-goroutine state: call it from one
// goroutine.
//
//vfpgavet:ignore testonly -- the memoized runner the serve, loadgen and vfpgaload tests replay traces through
func NewDirectRunner(bc BoardConfig) (workload.RunFunc, error) {
	if err := bc.Validate(); err != nil {
		return nil, err
	}
	cache := compile.NewStripCache(compile.DefaultCacheCapacity)
	memo := map[string]workload.Outcome{}
	return func(tenant string, spec *workload.Spec) (workload.Outcome, error) {
		key, err := json.Marshal(spec)
		if err != nil {
			return workload.Outcome{}, fmt.Errorf("serve: canonicalize spec: %w", err)
		}
		if o, ok := memo[string(key)]; ok {
			return o, nil
		}
		res, err := runJob(cache, bc, spec, false)
		var o workload.Outcome
		switch {
		case err == nil:
			o = workload.Outcome{Service: res.Makespan}
		default:
			esc, ok := fault.AsEscalation(err)
			if !ok {
				return workload.Outcome{}, err
			}
			o = workload.Outcome{Failed: true, FaultKind: esc.Kind.String()}
		}
		memo[string(key)] = o
		return o, nil
	}, nil
}

// runJob executes one workload spec on a freshly built board and
// returns the wire-form result: the job body on new hardware, the stack
// dropped after. It is what NewDirectRunner memoizes and the reference
// the warm equivalence suite compares against.
func runJob(cache *compile.StripCache, bc BoardConfig, spec *workload.Spec, withTrace bool) (*JobResult, error) {
	_, res, err := runSpec(nil, cache, bc, nil, spec, withTrace)
	return res, err
}
