package loadgen

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"repro/internal/fleet"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Request outcome labels in CSV/JSON results.
const (
	OutcomeOK        = "ok"
	OutcomeFailed    = "failed"
	OutcomeThrottled = "throttled"
)

// ModelConfig parameterizes one replay of a trace through the queueing
// kernel as one daemon of K boards.
type ModelConfig struct {
	// Servers is K: how many boards the daemon has, each with its own
	// FIFO.
	Servers int `json:"servers"`
	// Speedup divides every arrival timestamp: 2.0 offers the trace at
	// twice its recorded rate. Service times are unchanged, so speedup is
	// the offered-load knob the saturation search turns.
	Speedup float64 `json:"speedup"`
	// AdmitRate/AdmitBurst configure the per-tenant token bucket — a
	// serve.Admission on the virtual clock (tokens per virtual second /
	// bucket capacity). Zero rate disables admission control; requests
	// arriving to an empty bucket are throttled (the virtual 429) and
	// never reach a server.
	AdmitRate  float64 `json:"admit_rate,omitempty"`
	AdmitBurst float64 `json:"admit_burst,omitempty"`
}

func (c *ModelConfig) validate() error {
	if c.Servers <= 0 {
		return fmt.Errorf("loadgen: model needs servers > 0")
	}
	if !(c.Speedup > 0) {
		return fmt.Errorf("loadgen: model needs speedup > 0")
	}
	if c.AdmitRate < 0 || c.AdmitBurst < 0 {
		return fmt.Errorf("loadgen: admission rate/burst must be non-negative")
	}
	if c.AdmitRate > 0 && c.AdmitBurst < 1 {
		return fmt.Errorf("loadgen: admission burst must be >= 1 when rate is set")
	}
	return nil
}

// Request is one trace entry's fate in a replay: when it arrived (after
// speedup scaling), how long it queued, its service time, end-to-end
// latency, and how it ended.
type Request struct {
	Seq       int      `json:"seq"`
	Tenant    string   `json:"tenant"`
	Scenario  string   `json:"scenario"`
	Arrival   sim.Time `json:"arrival_ns"`
	Wait      sim.Time `json:"wait_ns"`
	Service   sim.Time `json:"service_ns"`
	Latency   sim.Time `json:"latency_ns"`
	Outcome   string   `json:"outcome"`
	FaultKind string   `json:"fault_kind,omitempty"`
}

// TenantStats is the per-tenant slice of a replay: counts by outcome,
// fault-kind breakdown, and latency quantiles over served requests.
type TenantStats struct {
	Tenant    string         `json:"tenant"`
	Submitted int            `json:"submitted"`
	Completed int            `json:"completed"`
	Failed    int            `json:"failed"`
	Throttled int            `json:"throttled"`
	Faults    map[string]int `json:"faults,omitempty"`
	P50Ns     int64          `json:"p50_ns"`
	P95Ns     int64          `json:"p95_ns"`
	P99Ns     int64          `json:"p99_ns"`
	MaxNs     int64          `json:"max_ns"`
	MeanNs    int64          `json:"mean_ns"`
}

// ReplaySummary is the aggregate view of one replay — everything the
// bench record and SLO checks need, without the per-request rows.
type ReplaySummary struct {
	Servers        int           `json:"servers"`
	Speedup        float64       `json:"speedup"`
	Jobs           int           `json:"jobs"`
	Completed      int           `json:"completed"`
	Failed         int           `json:"failed"`
	Throttled      int           `json:"throttled"`
	OfferedPerSec  float64       `json:"offered_per_sec"`
	AchievedPerSec float64       `json:"achieved_per_sec"`
	MakespanNs     int64         `json:"makespan_ns"`
	P50Ns          int64         `json:"p50_ns"`
	P95Ns          int64         `json:"p95_ns"`
	P99Ns          int64         `json:"p99_ns"`
	MaxNs          int64         `json:"max_ns"`
	MeanNs         int64         `json:"mean_ns"`
	Tenants        []TenantStats `json:"tenants"`
}

// Result is one full replay: the summary plus every request row.
type Result struct {
	Summary  ReplaySummary `json:"summary"`
	Requests []Request     `json:"requests"`
}

// foldResult reads each entry's fate off the simulated jobs (positional
// with the trace) into request rows, per-tenant tallies and the summary.
func foldResult(tr *workload.Trace, outcomes []workload.Outcome, cfg ModelConfig, jobs []fleet.SimJob, makespan sim.Time) *Result {
	type tenantAcc struct {
		stats TenantStats
		rec   *stats.LatencyRecorder
	}
	accs := make([]tenantAcc, len(tr.Tenants)) // indexed like SimJob.Tenant
	for i, t := range tr.Tenants {
		accs[i] = tenantAcc{stats: TenantStats{Tenant: t}, rec: stats.NewLatencyRecorder()}
	}
	total := stats.NewLatencyRecorder()
	res := &Result{Requests: make([]Request, 0, len(tr.Entries))}
	for i := range tr.Entries {
		e, o, j := &tr.Entries[i], outcomes[i], &jobs[i]
		req := Request{Seq: i, Tenant: e.Tenant, Scenario: e.Spec.Scenario, Arrival: j.Arrival}
		acc := &accs[j.Tenant]
		acc.stats.Submitted++
		if !j.Admitted {
			req.Outcome = OutcomeThrottled
			acc.stats.Throttled++
			res.Requests = append(res.Requests, req)
			continue
		}
		req.Wait = j.Start - j.Arrival
		req.Service = o.Service
		req.Latency = req.Wait + o.Service
		if o.Failed {
			req.Outcome = OutcomeFailed
			req.FaultKind = o.FaultKind
			acc.stats.Failed++
			if o.FaultKind != "" {
				if acc.stats.Faults == nil {
					acc.stats.Faults = map[string]int{}
				}
				acc.stats.Faults[o.FaultKind]++
			}
		} else {
			req.Outcome = OutcomeOK
			acc.stats.Completed++
		}
		acc.rec.Observe(int64(req.Latency))
		total.Observe(int64(req.Latency))
		res.Requests = append(res.Requests, req)
	}

	sum := ReplaySummary{
		Servers:    cfg.Servers,
		Speedup:    cfg.Speedup,
		Jobs:       len(tr.Entries),
		MakespanNs: int64(makespan),
		P50Ns:      total.Quantile(0.50),
		P95Ns:      total.Quantile(0.95),
		P99Ns:      total.Quantile(0.99),
		MaxNs:      total.Max(),
	}
	if total.Count() > 0 {
		sum.MeanNs = total.Sum() / total.Count()
	}
	for i := range accs {
		acc := &accs[i]
		acc.stats.P50Ns = acc.rec.Quantile(0.50)
		acc.stats.P95Ns = acc.rec.Quantile(0.95)
		acc.stats.P99Ns = acc.rec.Quantile(0.99)
		acc.stats.MaxNs = acc.rec.Max()
		if acc.rec.Count() > 0 {
			acc.stats.MeanNs = acc.rec.Sum() / acc.rec.Count()
		}
		sum.Completed += acc.stats.Completed
		sum.Failed += acc.stats.Failed
		sum.Throttled += acc.stats.Throttled
		sum.Tenants = append(sum.Tenants, acc.stats)
	}
	sort.Slice(sum.Tenants, func(i, j int) bool { return sum.Tenants[i].Tenant < sum.Tenants[j].Tenant })

	// Offered load is arrivals over the (scaled) arrival span; achieved
	// is completions over the full makespan. Spans are clamped to 1 ns so
	// single-entry traces stay finite.
	span := sim.Time(float64(tr.Duration()) / cfg.Speedup)
	if span < 1 {
		span = 1
	}
	sum.OfferedPerSec = float64(len(tr.Entries)) / (float64(span) / 1e9)
	if makespan < 1 {
		makespan = 1
	}
	sum.AchievedPerSec = float64(sum.Completed) / (float64(makespan) / 1e9)
	res.Summary = sum
	return res
}

// csvHeader is the fixed column set of per-request result CSVs.
const csvHeader = "seq,tenant,scenario,arrival_ns,wait_ns,service_ns,latency_ns,outcome,fault_kind\n"

// WriteCSV emits one row per request in seq order, preceded by the
// header. All values are integers or plain labels, so equal Results
// write byte-identical CSVs.
func WriteCSV(w io.Writer, res *Result) error {
	if _, err := io.WriteString(w, csvHeader); err != nil {
		return fmt.Errorf("loadgen: write csv: %w", err)
	}
	for i := range res.Requests {
		r := &res.Requests[i]
		_, err := fmt.Fprintf(w, "%d,%s,%s,%d,%d,%d,%d,%s,%s\n",
			r.Seq, r.Tenant, r.Scenario, int64(r.Arrival), int64(r.Wait), int64(r.Service), int64(r.Latency), r.Outcome, r.FaultKind)
		if err != nil {
			return fmt.Errorf("loadgen: write csv: %w", err)
		}
	}
	return nil
}

// EncodeSummary renders any result/summary/bench value as canonical
// indented JSON with a trailing newline — the byte form golden tests
// compare against.
func EncodeSummary(v any) ([]byte, error) {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("loadgen: encode summary: %w", err)
	}
	return append(data, '\n'), nil
}
