// Package serve turns the simulation stack into a long-running
// multi-tenant service: vfpgad. A Server owns a pool of simulated
// boards; each board runs on its own goroutine behind a bounded
// channel-based job queue, because the engines, ledgers and kernels
// under it are single-goroutine by design (see core.Engine). On top of
// the pool the serve layer adds per-tenant token-bucket admission
// control, explicit 429/Retry-After backpressure once queues fill,
// request deadlines and cancellation via context, graceful drain on
// SIGTERM, and operational telemetry in Prometheus text exposition
// format.
//
// The HTTP/JSON API:
//
//	POST   /v1/jobs       submit a workload.Spec for a tenant → job id
//	GET    /v1/jobs/{id}  job status, per-task results, core metrics
//	DELETE /v1/jobs/{id}  cancel a queued job
//	GET    /v1/boards     board occupancy and queue depths
//	GET    /healthz       liveness + version
//	GET    /metrics       Prometheus text exposition
package serve

import (
	"repro/internal/core"
	"repro/internal/hostos"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// SubmitRequest is the body of POST /v1/jobs.
type SubmitRequest struct {
	// Tenant is the submitting tenant (required; admission control and
	// accounting are per tenant).
	Tenant string `json:"tenant"`
	// Workload is the workload to run.
	Workload workload.Spec `json:"workload"`
	// Board pins the job to one board; nil lets the pool pick the one
	// where the job finishes first (BoardInfo.QueuedWorkNS).
	Board *int `json:"board,omitempty"`
	// Node pins the job to one node of a fleet; only valid against a
	// fleet front-end (vfpgad -nodes > 1). A single-node daemon rejects
	// it with 400. When both Node and Board are set, Board names a board
	// of the pinned node.
	Node *int `json:"node,omitempty"`
	// TimeoutMS bounds the job's total wall-clock lifetime (queue wait
	// included); 0 means no deadline. An expired job fails instead of
	// running.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// Trace includes the merged scheduler+device timeline in the result.
	Trace bool `json:"trace,omitempty"`
}

// SubmitResponse is the body of a 202 from POST /v1/jobs.
type SubmitResponse struct {
	ID    string `json:"id"`
	Board int    `json:"board"`
	// Node is the fleet node the job was routed to; present only from a
	// fleet front-end.
	Node int `json:"node,omitempty"`
}

// Job states.
const (
	StateQueued  = "queued"
	StateRunning = "running"
	StateDone    = "done"
	StateFailed  = "failed"
)

// JobStatus is the body of GET /v1/jobs/{id}.
type JobStatus struct {
	ID     string     `json:"id"`
	Tenant string     `json:"tenant"`
	State  string     `json:"state"`
	Board  int        `json:"board"`
	Error  string     `json:"error,omitempty"`
	Result *JobResult `json:"result,omitempty"`
	// FaultKind types a failure caused by injected-fault escalation
	// ("config-error", "readback-flip", ...); empty otherwise. Clients
	// distinguish chaos-campaign casualties from real bugs by this field.
	FaultKind string `json:"fault_kind,omitempty"`
	// Requeues counts how many times the job was handed to another board
	// after its original board was quarantined.
	Requeues int `json:"requeues,omitempty"`
}

// TaskResult is one simulated task's metrics, in virtual nanoseconds.
type TaskResult struct {
	Name       string   `json:"name"`
	Turnaround sim.Time `json:"turnaround_ns"`
	hostos.TaskStats
}

// JobResult is a completed job's payload: exactly what the same workload
// run directly through hostos produces, plus the device-side metrics of
// every engine the board's manager drove (one for most managers, several
// for multi).
type JobResult struct {
	Tasks       []TaskResult           `json:"tasks"`
	Makespan    sim.Time               `json:"makespan_ns"`
	CtxSwitches int64                  `json:"ctx_switches"`
	Metrics     []core.MetricsSnapshot `json:"metrics"`
	// LintClean reports that the post-run device-state audit (the same
	// passes as vfpgasim -lint) found no errors; diagnostics, when any,
	// are in LintDiags.
	LintClean bool                  `json:"lint_clean"`
	LintDiags []string              `json:"lint_diags,omitempty"`
	Timeline  []trace.TimelineEvent `json:"timeline,omitempty"`
}

// BoardInfo is one entry of GET /v1/boards.
type BoardInfo struct {
	ID         int    `json:"id"`
	Manager    string `json:"manager"`
	Cols       int    `json:"cols"`
	Rows       int    `json:"rows"`
	State      string `json:"state"` // "idle" | "busy" | "quarantined"
	CurrentJob string `json:"current_job,omitempty"`
	QueueDepth int    `json:"queue_depth"`
	QueueCap   int    `json:"queue_cap"`
	JobsDone   int64  `json:"jobs_done"`
	JobsFailed int64  `json:"jobs_failed"`
	// Quarantined boards run nothing: an injected fault exhausted the
	// ledger's retry budget there. FaultKind is the escalated kind and
	// Escalations the number of escalated jobs the board saw.
	Quarantined bool   `json:"quarantined,omitempty"`
	FaultKind   string `json:"fault_kind,omitempty"`
	Escalations int64  `json:"escalations,omitempty"`
	// Warm reports that the board holds the hardware of its last job —
	// the devices and the simulation kernel — which the next job's stack
	// is built on, erased. WarmResets counts jobs that ran on such
	// recycled hardware, ColdResets jobs that ran on new hardware: a
	// board's first, and the first after a failed job.
	Warm       bool  `json:"warm"`
	WarmResets int64 `json:"warm_resets"`
	ColdResets int64 `json:"cold_resets"`
	// QueuedWorkNS and ServiceEstNS are what placement reads. A job's
	// estimate on the board is the mean virtual makespan of the jobs of
	// its scenario the board completed, one entry per scenario in
	// workload.Scenarios() order (0: none completed yet); QueuedWorkNS
	// sums the estimates of the jobs queued on the board and the one it
	// runs. A job goes to the board where queued work plus its own
	// estimate is least.
	QueuedWorkNS int64                        `json:"queued_work_ns"`
	ServiceEstNS [workload.NumScenarios]int64 `json:"service_est_ns"`
}

// Health is the body of GET /healthz.
type Health struct {
	Status  string `json:"status"` // "ok" | "draining"
	Version string `json:"version"`
	Boards  int    `json:"boards"`
	// Nodes is the fleet size; present only from a fleet front-end.
	Nodes int `json:"nodes,omitempty"`
}

// ErrorBody is the JSON envelope of every non-2xx response.
type ErrorBody struct {
	Error string `json:"error"`
}
