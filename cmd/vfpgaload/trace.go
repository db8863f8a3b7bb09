package main

// Trace modes: -record generates an open-loop workload trace offline;
// -trace replays a recorded trace against a live daemon and runs the
// deterministic results pipeline over the measured outcomes.
//
// The division of labor with internal/loadgen: this file owns the wall
// clock (pacing submissions, HTTP, Retry-After windows) and produces
// one virtual-time Outcome per trace entry; every reported number —
// latency quantiles, throughput curve, saturation point — comes from
// loadgen's virtual replay model over those outcomes, so the emitted
// CSV/JSON is byte-identical across runs of the same trace.

import (
	"fmt"
	"net/http"
	"os"
	"sync"
	"time"

	"repro/internal/loadgen"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/workload"
)

type genConfig struct {
	jobs    int
	arrival string
	mean    time.Duration
	on, off time.Duration
	seed    uint64
	tenants int
}

// runRecord generates a trace per the -gen-* flags and writes it.
func runRecord(path string, gc genConfig) int {
	cfg := loadgen.GenConfig{
		Arrival:      gc.arrival,
		Jobs:         gc.jobs,
		MeanInterval: sim.Time(gc.mean.Nanoseconds()),
		OnMean:       sim.Time(gc.on.Nanoseconds()),
		OffMean:      sim.Time(gc.off.Nanoseconds()),
		Seed:         gc.seed,
		Mix:          loadgen.DefaultMix(gc.tenants),
	}
	tr, err := loadgen.Generate(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "vfpgaload: %v\n", err)
		return 1
	}
	data, err := tr.EncodeJSON()
	if err != nil {
		fmt.Fprintf(os.Stderr, "vfpgaload: %v\n", err)
		return 1
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "vfpgaload: %v\n", err)
		return 1
	}
	fmt.Printf("vfpgaload: recorded %d entries over %s across %d tenants to %s\n",
		len(tr.Entries), time.Duration(tr.Duration()).Round(time.Millisecond), len(tr.Tenants), path)
	return 0
}

type traceOpts struct {
	speedup    float64
	pace       float64
	servers    int
	slo        string
	csvOut     string
	jsonOut    string
	admitRate  float64
	admitBurst float64
	deadline   time.Time
	checkLint  bool
}

// traceReport is the -json-out payload of a trace replay.
type traceReport struct {
	Trace      string                   `json:"trace"`
	Summary    loadgen.ReplaySummary    `json:"summary"`
	Curve      []loadgen.CurvePoint     `json:"curve,omitempty"`
	Saturation *loadgen.SaturationPoint `json:"saturation,omitempty"`
}

// runTrace replays the recorded trace against the target and runs
// the results pipeline. Exit is nonzero on any untyped job failure,
// transport error, lint-dirty result (with -check-lint), or — when
// -slo is set — a baseline replay that violates it.
func runTrace(target, path string, opts traceOpts) int {
	data, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "vfpgaload: %v\n", err)
		return 1
	}
	tr, err := workload.DecodeTrace(data)
	if err != nil {
		fmt.Fprintf(os.Stderr, "vfpgaload: %v\n", err)
		return 1
	}
	st := &stats{codes: map[int]int{}}
	srvs := opts.servers
	if srvs <= 0 {
		if srvs = queryServerCount(target, opts.deadline, st); srvs <= 0 {
			fmt.Fprintln(os.Stderr, "vfpgaload: could not count boards via /v1/boards; pass -servers")
			return 1
		}
	}

	outcomes, err := executeTrace(target, tr, opts, st)
	if err != nil {
		fmt.Fprintf(os.Stderr, "vfpgaload: %v\n", err)
		return 1
	}

	cfg := loadgen.ModelConfig{
		Servers: srvs, Speedup: opts.speedup,
		AdmitRate: opts.admitRate, AdmitBurst: opts.admitBurst,
	}
	res, err := loadgen.Replay(tr, outcomes, cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "vfpgaload: %v\n", err)
		return 1
	}
	report := traceReport{Trace: path, Summary: res.Summary}

	bad := false
	if opts.slo != "" {
		slo, err := loadgen.ParseSLO(opts.slo)
		if err != nil {
			fmt.Fprintf(os.Stderr, "vfpgaload: %v\n", err)
			return 1
		}
		curve, err := loadgen.Curve(tr, outcomes, cfg, loadgen.DefaultCurveSpeedups, slo)
		if err != nil {
			fmt.Fprintf(os.Stderr, "vfpgaload: %v\n", err)
			return 1
		}
		sat, err := loadgen.Saturate(tr, outcomes, cfg, slo,
			loadgen.SaturateLo, loadgen.SaturateHi, loadgen.SaturateIters)
		if err != nil {
			fmt.Fprintf(os.Stderr, "vfpgaload: %v\n", err)
			return 1
		}
		report.Curve, report.Saturation = curve, &sat
		if !slo.Met(&res.Summary) {
			fmt.Fprintf(os.Stderr, "vfpgaload: SLO %s violated: p99=%s\n",
				opts.slo, time.Duration(res.Summary.P99Ns))
			bad = true
		}
	}

	if opts.csvOut != "" {
		f, err := os.Create(opts.csvOut)
		if err == nil {
			err = loadgen.WriteCSV(f, res)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "vfpgaload: %v\n", err)
			return 1
		}
	}
	if opts.jsonOut != "" {
		out, err := loadgen.EncodeSummary(report)
		if err == nil {
			err = os.WriteFile(opts.jsonOut, out, 0o644)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "vfpgaload: %v\n", err)
			return 1
		}
	}

	s := res.Summary
	fmt.Printf("vfpgaload: trace %s: %d jobs, %d completed, %d failed, %d throttled (virtual replay, speedup %.2f, %d servers)\n",
		path, s.Jobs, s.Completed, s.Failed, s.Throttled, s.Speedup, s.Servers)
	fmt.Printf("  latency p50=%s p95=%s p99=%s max=%s\n",
		time.Duration(s.P50Ns), time.Duration(s.P95Ns), time.Duration(s.P99Ns), time.Duration(s.MaxNs))
	fmt.Printf("  offered %.2f jobs/s, achieved %.2f jobs/s, makespan %s\n",
		s.OfferedPerSec, s.AchievedPerSec, time.Duration(s.MakespanNs).Round(time.Millisecond))
	if report.Saturation != nil {
		sat := report.Saturation
		fmt.Printf("  saturation under %s: speedup %.2f (%.2f jobs/s offered, p99=%s), met=%v saturated=%v\n",
			sat.SLO, sat.Point.Speedup, sat.Point.OfferedPerSec, time.Duration(sat.Point.P99Ns), sat.Met, sat.Saturated)
	}

	st.mu.Lock()
	defer st.mu.Unlock()
	fmt.Printf("  wire: %d submitted, %d completed, %d faulted, %d transport errors, %d retries after 429\n",
		st.submitted, st.completed, st.faulted, st.transport, st.retries)
	if st.failed > 0 || st.transport > 0 {
		bad = true
	}
	if opts.checkLint && st.lintDirty > 0 {
		fmt.Printf("  lint-dirty results: %d\n", st.lintDirty)
		bad = true
	}
	if bad {
		return 1
	}
	return 0
}

// executeTrace submits every entry (paced open-loop when -pace > 0) and
// collects one virtual Outcome per entry, in entry order. Submissions do
// not wait for each other: pacing follows the recorded arrival clock,
// not completions.
func executeTrace(target string, tr *workload.Trace, opts traceOpts, st *stats) ([]workload.Outcome, error) {
	client := &http.Client{Timeout: 30 * time.Second}
	outcomes := make([]workload.Outcome, len(tr.Entries))
	errs := make([]error, len(tr.Entries))
	// Bound in-flight jobs so huge traces cannot exhaust sockets; 64 is
	// far beyond any pool's aggregate queue depth.
	sem := make(chan struct{}, 64)
	var wg sync.WaitGroup
	start := time.Now()
	for i := range tr.Entries {
		e := &tr.Entries[i]
		if opts.pace > 0 {
			due := start.Add(time.Duration(float64(e.At) / opts.pace))
			if d := time.Until(due); d > 0 {
				sleep(d)
			}
		}
		wg.Add(1)
		sem <- struct{}{}
		go func(i int, e *workload.TraceEntry) {
			defer wg.Done()
			defer func() { <-sem }()
			outcomes[i], errs[i] = submitAndAwait(client, target, e.Tenant, &e.Spec, opts, st)
		}(i, e)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("entry %d (%s/%s): %w", i, tr.Entries[i].Tenant, tr.Entries[i].Spec.Scenario, err)
		}
	}
	return outcomes, nil
}

// submitAndAwait is one trace entry: awaitJob, then the trace verdict —
// the result as a virtual Outcome. A typed injected-fault failure is an
// outcome (data for the model's error breakdown); an untyped failure, a
// done job without a result, or a wire failure is an error.
func submitAndAwait(client *http.Client, target, tenant string, spec *workload.Spec, opts traceOpts, st *stats) (workload.Outcome, error) {
	js, svc, err := awaitJob(client, target, tenant, spec, opts.deadline, st)
	if err != nil {
		return workload.Outcome{}, err
	}
	done := js.State == serve.StateDone
	st.mu.Lock()
	defer st.mu.Unlock()
	switch {
	case done && js.Result != nil:
		st.noteServiceLocked(tenant, svc)
		st.completed++
		if opts.checkLint && !js.Result.LintClean {
			st.lintDirty++
		}
		return workload.Outcome{Service: js.Result.Makespan}, nil
	case done:
		st.failed++
		return workload.Outcome{}, fmt.Errorf("job %s done without a result", js.ID)
	case js.FaultKind != "":
		st.faulted++
		return workload.Outcome{Failed: true, FaultKind: js.FaultKind}, nil
	}
	st.failed++
	return workload.Outcome{}, fmt.Errorf("job %s failed: %s", js.ID, js.Error)
}

// queryServerCount counts the boards the target's /v1/boards lists.
func queryServerCount(target string, deadline time.Time, st *stats) int {
	boards, err := fetchBoards(target, deadline, st)
	if err != nil {
		return -1
	}
	return len(boards)
}
