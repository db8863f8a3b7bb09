// Package loadgen is the open-loop, trace-driven load harness of the
// serving stack: arrival-process generators that record workload.Trace
// files, and a deterministic replay pipeline that turns a trace plus the
// measured outcome of each submission into latency quantiles, per-tenant
// error/throttle breakdowns, offered-vs-achieved throughput curves, and
// a saturation point under a declared latency SLO.
//
// The split that makes replay reproducible: executing a trace entry on
// the serving stack yields a virtual-time workload.Outcome (the job's
// makespan is a pure function of the spec — the warm-board equivalence
// suite pins that), and everything else — queueing, admission, latency,
// saturation — is computed in virtual time by fleet.Simulate, the one
// queueing kernel, configured here as one daemon of K boards: each job
// goes at arrival to the board the daemon's own rule picks, and each
// board runs its own FIFO. Real submissions
// happen at the wall-clock boundary (cmd/vfpgaload paces them open-loop
// against a live daemon); the numbers the harness emits are all virtual,
// so the same trace file and speedup produce byte-identical CSV and JSON
// results on every run, single node or fleet. This package is therefore
// under the determinism contract:
//
//vfpgavet:deterministic
package loadgen

import (
	"fmt"

	"repro/internal/fleet"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Execute runs every trace entry through run, in entry order, and
// returns the per-entry outcomes the model consumes. Implementations
// that memoize by spec (serve.NewDirectRunner) make this cheap for
// traces with repeated specs.
func Execute(tr *workload.Trace, run workload.RunFunc) ([]workload.Outcome, error) {
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	out := make([]workload.Outcome, len(tr.Entries))
	for i := range tr.Entries {
		e := &tr.Entries[i]
		o, err := run(e.Tenant, &e.Spec)
		if err != nil {
			return nil, fmt.Errorf("loadgen: entry %d (%s/%s): %w", i, e.Tenant, e.Spec.Scenario, err)
		}
		out[i] = o
	}
	return out, nil
}

// Replay pushes the trace through the queueing kernel configured as one
// daemon: one node of cfg.Servers one-column boards, every entry a
// width-1 job of its scenario's class arriving at At/Speedup, queued on
// the board where serve.Pool would queue it — its queued work plus its
// estimate there, the mean of the jobs of its scenario that board
// completed — and holding that board for its measured virtual service
// time, the daemon's own per-tenant token-bucket admission in front when
// cfg.AdmitRate > 0. outcomes must
// be positional per trace entry (from Execute). Everything is integer
// virtual time or order-fixed float arithmetic, so equal inputs give
// equal Results, byte for byte.
func Replay(tr *workload.Trace, outcomes []workload.Outcome, cfg ModelConfig) (*Result, error) {
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if len(outcomes) != len(tr.Entries) {
		return nil, fmt.Errorf("loadgen: %d outcomes for %d trace entries", len(outcomes), len(tr.Entries))
	}

	tenantIndex := make(map[string]int32, len(tr.Tenants))
	for i, t := range tr.Tenants {
		tenantIndex[t] = int32(i)
	}
	jobs := make([]fleet.SimJob, len(tr.Entries))
	for i := range tr.Entries {
		e := &tr.Entries[i]
		jobs[i] = fleet.SimJob{
			Arrival:  sim.Time(float64(e.At) / cfg.Speedup),
			Duration: outcomes[i].Service,
			Tenant:   tenantIndex[e.Tenant],
			Width:    1,
			Class:    int32(workload.ScenarioIndex(e.Spec.Scenario)),
			Failed:   outcomes[i].Failed,
		}
	}
	// With one node every policy routes alike; firstfit is the cheapest.
	// The node's own pick chooses the board.
	policy, err := fleet.NewPolicy("firstfit", 0)
	if err != nil {
		return nil, err
	}
	tot, err := fleet.Simulate(fleet.Shape{
		Nodes: 1, BoardsPerNode: cfg.Servers, Cols: 1, FailNode: -1,
		Limits:  serve.TenantLimits{Rate: cfg.AdmitRate, Burst: cfg.AdmitBurst},
		Tenants: tr.Tenants,
	}, policy, jobs)
	if err != nil {
		return nil, err
	}
	return foldResult(tr, outcomes, cfg, jobs, tot.Makespan), nil
}
