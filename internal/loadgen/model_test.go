package loadgen_test

import (
	"bytes"
	"testing"

	"repro/internal/loadgen"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/workload"
)

// evenTrace returns n single-tenant arrivals spaced gap apart, plus a
// uniform outcome list with the given service time.
func evenTrace(t *testing.T, n int, gap, service sim.Time) (*workload.Trace, []workload.Outcome) {
	t.Helper()
	spec, err := workload.BuiltinSpec("multimedia")
	if err != nil {
		t.Fatal(err)
	}
	tr := &workload.Trace{Version: workload.TraceVersion, Seed: 1, Tenants: []string{"solo"}}
	outcomes := make([]workload.Outcome, n)
	for i := 0; i < n; i++ {
		tr.Entries = append(tr.Entries, workload.TraceEntry{At: sim.Time(i) * gap, Tenant: "solo", Spec: spec})
		outcomes[i] = workload.Outcome{Service: service}
	}
	return tr, outcomes
}

func TestReplayNoContention(t *testing.T) {
	tr, outcomes := evenTrace(t, 10, 1000, 800)
	res, err := loadgen.Replay(tr, outcomes, loadgen.ModelConfig{Servers: 2, Speedup: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res.Requests {
		if r.Wait != 0 || r.Latency != 800 || r.Outcome != loadgen.OutcomeOK {
			t.Fatalf("uncontended request queued: %+v", r)
		}
	}
	s := res.Summary
	if s.Completed != 10 || s.Failed != 0 || s.Throttled != 0 {
		t.Fatalf("counts off: %+v", s)
	}
	if s.MakespanNs != int64(9*1000+800) {
		t.Fatalf("makespan = %d, want %d", s.MakespanNs, 9*1000+800)
	}
}

func TestReplayFIFOQueueing(t *testing.T) {
	spec, err := workload.BuiltinSpec("storage")
	if err != nil {
		t.Fatal(err)
	}
	tr := &workload.Trace{
		Version: workload.TraceVersion, Seed: 1, Tenants: []string{"a", "b"},
		Entries: []workload.TraceEntry{
			{At: 0, Tenant: "a", Spec: spec},
			{At: 0, Tenant: "b", Spec: spec},
		},
	}
	outcomes := []workload.Outcome{{Service: 100}, {Service: 50}}
	res, err := loadgen.Replay(tr, outcomes, loadgen.ModelConfig{Servers: 1, Speedup: 1})
	if err != nil {
		t.Fatal(err)
	}
	first, second := res.Requests[0], res.Requests[1]
	if first.Wait != 0 || first.Latency != 100 {
		t.Fatalf("first: %+v", first)
	}
	if second.Wait != 100 || second.Latency != 150 {
		t.Fatalf("second must queue behind first (FIFO): %+v", second)
	}
}

func TestReplaySpeedupCompressesArrivals(t *testing.T) {
	tr, outcomes := evenTrace(t, 2, 1000, 600)
	res, err := loadgen.Replay(tr, outcomes, loadgen.ModelConfig{Servers: 1, Speedup: 4})
	if err != nil {
		t.Fatal(err)
	}
	second := res.Requests[1]
	if second.Arrival != 250 {
		t.Fatalf("speedup 4 should scale arrival 1000 -> 250, got %d", second.Arrival)
	}
	if second.Wait != 350 || second.Latency != 950 {
		t.Fatalf("compressed arrivals must queue: %+v", second)
	}
}

func TestReplayTokenBucketThrottles(t *testing.T) {
	tr, outcomes := evenTrace(t, 3, 1000, 10)
	res, err := loadgen.Replay(tr, outcomes, loadgen.ModelConfig{
		Servers: 1, Speedup: 1, AdmitRate: 1, AdmitBurst: 1, // 1 token/s: only the burst token exists at ns scale
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests[0].Outcome != loadgen.OutcomeOK {
		t.Fatalf("burst token should admit the first request: %+v", res.Requests[0])
	}
	for _, r := range res.Requests[1:] {
		if r.Outcome != loadgen.OutcomeThrottled {
			t.Fatalf("empty bucket should throttle: %+v", r)
		}
		if r.Latency != 0 || r.Wait != 0 {
			t.Fatalf("throttled request must not accrue latency: %+v", r)
		}
	}
	if s := res.Summary; s.Throttled != 2 || s.Completed != 1 {
		t.Fatalf("summary counts: %+v", s)
	}
}

func TestReplayRecordsFailures(t *testing.T) {
	tr, outcomes := evenTrace(t, 3, 1000, 100)
	outcomes[1] = workload.Outcome{Service: 100, Failed: true, FaultKind: "bitstream-corrupt"}
	res, err := loadgen.Replay(tr, outcomes, loadgen.ModelConfig{Servers: 1, Speedup: 1})
	if err != nil {
		t.Fatal(err)
	}
	if r := res.Requests[1]; r.Outcome != loadgen.OutcomeFailed || r.FaultKind != "bitstream-corrupt" {
		t.Fatalf("failure not recorded: %+v", r)
	}
	s := res.Summary
	if s.Completed != 2 || s.Failed != 1 {
		t.Fatalf("summary counts: %+v", s)
	}
	if len(s.Tenants) != 1 || s.Tenants[0].Faults["bitstream-corrupt"] != 1 {
		t.Fatalf("fault breakdown missing: %+v", s.Tenants)
	}
}

func TestReplayRejectsMismatchedOutcomes(t *testing.T) {
	tr, outcomes := evenTrace(t, 3, 1000, 100)
	if _, err := loadgen.Replay(tr, outcomes[:2], loadgen.ModelConfig{Servers: 1, Speedup: 1}); err == nil {
		t.Fatal("mismatched outcome count accepted")
	}
	if _, err := loadgen.Replay(tr, outcomes, loadgen.ModelConfig{Servers: 0, Speedup: 1}); err == nil {
		t.Fatal("zero servers accepted")
	}
	if _, err := loadgen.Replay(tr, outcomes, loadgen.ModelConfig{Servers: 1, Speedup: 0}); err == nil {
		t.Fatal("zero speedup accepted")
	}
}

func TestReplayByteIdentical(t *testing.T) {
	tr, outcomes := evenTrace(t, 200, 700, 650)
	cfg := loadgen.ModelConfig{Servers: 2, Speedup: 3, AdmitRate: 1e6, AdmitBurst: 8}
	var sums [2][]byte
	var csvs [2][]byte
	for i := 0; i < 2; i++ {
		res, err := loadgen.Replay(tr, outcomes, cfg)
		if err != nil {
			t.Fatal(err)
		}
		sums[i], err = loadgen.EncodeSummary(res.Summary)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := loadgen.WriteCSV(&buf, res); err != nil {
			t.Fatal(err)
		}
		csvs[i] = buf.Bytes()
	}
	if !bytes.Equal(sums[0], sums[1]) {
		t.Fatal("summary JSON differs across identical replays")
	}
	if !bytes.Equal(csvs[0], csvs[1]) {
		t.Fatal("CSV differs across identical replays")
	}
}

func TestParseSLO(t *testing.T) {
	slo, err := loadgen.ParseSLO("p99<50ms")
	if err != nil {
		t.Fatal(err)
	}
	if slo.Quantile != 0.99 || slo.Bound != 50*1e6 {
		t.Fatalf("parsed %+v", slo)
	}
	for _, bad := range []string{"", "p99", "p99<", "p0<1ms", "p100<1ms", "q99<1ms", "p99<-1ms", "p99<fast"} {
		if _, err := loadgen.ParseSLO(bad); err == nil {
			t.Fatalf("ParseSLO(%q) accepted", bad)
		}
	}
	// The bound is strict: p99 exactly at the bound violates it.
	at := &loadgen.ReplaySummary{P99Ns: 50 * 1e6}
	if slo.Met(at) {
		t.Fatal("p99 == bound must violate a strict < SLO")
	}
	at.P99Ns--
	if !slo.Met(at) {
		t.Fatal("p99 < bound must meet the SLO")
	}
}

func TestCurveAndSaturation(t *testing.T) {
	// Even arrivals every 1000ns, service 800ns, one server: the system
	// saturates near speedup 1.25, where offered load crosses capacity.
	tr, outcomes := evenTrace(t, 1000, 1000, 800)
	base := loadgen.ModelConfig{Servers: 1, Speedup: 1}
	slo, err := loadgen.ParseSLO("p99<1us")
	if err != nil {
		t.Fatal(err)
	}
	curve, err := loadgen.Curve(tr, outcomes, base, []float64{0.5, 1, 2, 4}, slo)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(curve); i++ {
		if curve[i].OfferedPerSec <= curve[i-1].OfferedPerSec {
			t.Fatalf("offered load must grow with speedup: %+v", curve)
		}
		if curve[i].P99Ns < curve[i-1].P99Ns {
			t.Fatalf("p99 must not improve under more load: %+v", curve)
		}
	}
	if !curve[1].SLOMet || curve[3].SLOMet {
		t.Fatalf("SLO must hold at speedup 1 and break at 4: %+v", curve)
	}

	sat, err := loadgen.Saturate(tr, outcomes, base, slo, 0.25, 64, 20)
	if err != nil {
		t.Fatal(err)
	}
	if !sat.Met || !sat.Saturated {
		t.Fatalf("search should find an interior saturation point: %+v", sat)
	}
	if sat.Point.Speedup < 1.0 || sat.Point.Speedup > 1.6 {
		t.Fatalf("saturation speedup = %v, want near the 1.25 capacity crossing", sat.Point.Speedup)
	}
	if !sat.Point.SLOMet {
		t.Fatal("reported saturation point must itself meet the SLO")
	}
}

func TestSaturateEdges(t *testing.T) {
	tr, outcomes := evenTrace(t, 100, 1000, 800)
	base := loadgen.ModelConfig{Servers: 1, Speedup: 1}
	tight, err := loadgen.ParseSLO("p99<1ns")
	if err != nil {
		t.Fatal(err)
	}
	sat, err := loadgen.Saturate(tr, outcomes, base, tight, 0.25, 64, 10)
	if err != nil {
		t.Fatal(err)
	}
	if sat.Met {
		t.Fatalf("unmeetable SLO reported met: %+v", sat)
	}
	loose, err := loadgen.ParseSLO("p99<10s")
	if err != nil {
		t.Fatal(err)
	}
	sat, err = loadgen.Saturate(tr, outcomes, base, loose, 0.25, 64, 10)
	if err != nil {
		t.Fatal(err)
	}
	if !sat.Met || sat.Saturated {
		t.Fatalf("trivially-met SLO should report unsaturated at hi: %+v", sat)
	}
}

func TestExecuteRunsEntriesInOrder(t *testing.T) {
	tr, _ := evenTrace(t, 5, 1000, 0)
	var seen []string
	outcomes, err := execute(tr, func(tenant string, spec *workload.Spec) (workload.Outcome, error) {
		seen = append(seen, tenant+"/"+spec.Scenario)
		return workload.Outcome{Service: sim.Time(len(seen))}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(outcomes) != 5 || len(seen) != 5 {
		t.Fatalf("ran %d/%d entries", len(seen), len(outcomes))
	}
	for i, o := range outcomes {
		if o.Service != sim.Time(i+1) {
			t.Fatalf("outcomes out of order: %+v", outcomes)
		}
	}
}

// refRow is what the reference and the kernel must agree on per request.
type refRow struct {
	wait, latency sim.Time
	outcome       string
}

// referenceReplay is a closed form of the daemon's own board rule, kept
// as the model the kernel is checked against, written without the fleet
// or serve packages. Per board it keeps a free-at time, the jobs it holds
// — each with its finish time and the estimate it was charged at — and a
// running mean per scenario of the jobs it completed; an arrival first
// retires every held job that finished strictly before it (a job
// finishing at the instant of an arrival is still held), then goes to the
// board with the least held charges plus its estimate there, then the
// fewest held jobs, then the lowest index, and starts when that board is
// free. A float token bucket per tenant in the parent's own arithmetic
// stands in front. edges counts admission decisions taken on a bucket
// holding exactly one token.
func referenceReplay(tr *workload.Trace, outcomes []workload.Outcome, cfg loadgen.ModelConfig) (rows []refRow, edges int) {
	type held struct {
		finish, service sim.Time
		charge          int64
		scen            int
		failed          bool
	}
	type board struct {
		free     sim.Time
		jobs     []held // in start order, so in finish order
		sum, cnt [workload.NumScenarios]int64
	}
	boards := make([]board, cfg.Servers)
	mean := func(b *board, scen int) int64 {
		if b.cnt[scen] == 0 {
			return 0
		}
		return b.sum[scen] / b.cnt[scen]
	}
	type bucket struct {
		tokens float64
		last   sim.Time
	}
	buckets := map[string]*bucket{}
	for _, t := range tr.Tenants {
		buckets[t] = &bucket{tokens: cfg.AdmitBurst}
	}
	rows = make([]refRow, len(tr.Entries))
	for i := range tr.Entries {
		e, o := &tr.Entries[i], outcomes[i]
		arrival := sim.Time(float64(e.At) / cfg.Speedup)
		if cfg.AdmitRate > 0 {
			b := buckets[e.Tenant]
			b.tokens += float64(arrival-b.last) * cfg.AdmitRate / 1e9
			if b.tokens > cfg.AdmitBurst {
				b.tokens = cfg.AdmitBurst
			}
			b.last = arrival
			if b.tokens == 1 {
				edges++
			}
			if b.tokens < 1 {
				rows[i] = refRow{outcome: loadgen.OutcomeThrottled}
				continue
			}
			b.tokens--
		}
		scen := workload.ScenarioIndex(e.Spec.Scenario)
		srv, srvCost := -1, int64(0)
		for s := range boards {
			b := &boards[s]
			for len(b.jobs) > 0 && b.jobs[0].finish < arrival {
				if h := b.jobs[0]; !h.failed {
					b.sum[h.scen] += int64(h.service)
					b.cnt[h.scen]++
				}
				b.jobs = b.jobs[1:]
			}
			cost := mean(b, scen)
			for _, h := range b.jobs {
				cost += h.charge
			}
			if srv < 0 || cost < srvCost || cost == srvCost && len(b.jobs) < len(boards[srv].jobs) {
				srv, srvCost = s, cost
			}
		}
		b := &boards[srv]
		start := max(arrival, b.free)
		b.free = start + o.Service
		b.jobs = append(b.jobs, held{finish: b.free, service: o.Service, charge: mean(b, scen), scen: scen, failed: o.Failed})
		rows[i] = refRow{wait: start - arrival, latency: b.free - arrival, outcome: loadgen.OutcomeOK}
		if o.Failed {
			rows[i].outcome = loadgen.OutcomeFailed
		}
	}
	return rows, edges
}

// TestReplayMatchesClosedForm drives the kernel-backed Replay and the
// closed form over seeded random traces built to hit what distinguishes
// an event loop from a formula: arrivals that share a timestamp (before
// or only after speedup scaling), zero-service failures, bursts longer
// than K, a job arriving at the instant another finishes, every scenario
// mixed so boards estimate each apart, and — with admission on — gaps of
// whole token periods, so decisions land exactly on the tokens >= 1
// edge. Every request must come out identical.
func TestReplayMatchesClosedForm(t *testing.T) {
	specs := workload.BuiltinSpecs()
	speedups := []float64{0.25, 1, 3.7, 64}
	rates := []float64{1, 2, 3.3, 5, 7, 10, 20}
	bursts := []float64{1, 1.5, 2, 3, 5}
	tenants := []string{"a", "b", "c"}
	edges, throttled, queued := 0, 0, 0
	for seed := uint64(1); seed <= 240; seed++ {
		src, mix := rng.New(seed), rng.New(seed<<32)
		cfg := loadgen.ModelConfig{Servers: 1 + src.Intn(8), Speedup: speedups[src.Intn(len(speedups))]}
		period := float64(100 * sim.Millisecond)
		if seed%2 == 0 {
			cfg.AdmitRate = rates[src.Intn(len(rates))]
			cfg.AdmitBurst = bursts[src.Intn(len(bursts))]
			period = 1e9 / cfg.AdmitRate
		}
		step := period * cfg.Speedup // one period of scaled time, in trace time
		tr := &workload.Trace{Version: workload.TraceVersion, Seed: seed, Tenants: tenants[:1+src.Intn(len(tenants))]}
		var outcomes []workload.Outcome
		at := sim.Time(0)
		for n := 20 + src.Intn(60); len(tr.Entries) < n; {
			switch src.Intn(6) {
			case 0: // same timestamp as the previous entry
			case 1: // distinct in the trace, equal after a speedup > 1
				at += sim.Time(1 + src.Intn(3))
			case 2, 3: // whole token periods: the bucket refills to an integer
				at += sim.Time(float64(1+src.Intn(3)) * step)
			default:
				at += sim.Time(src.Float64() * 2 * step)
			}
			batch := 1
			if src.Intn(8) == 0 { // a burst longer than K at one instant
				batch = cfg.Servers + 1 + src.Intn(cfg.Servers+3)
			}
			for b := 0; b < batch; b++ {
				o := workload.Outcome{Service: sim.Time(src.Float64() * 1.5 * period * float64(cfg.Servers))}
				switch src.Intn(8) {
				case 0:
					o = workload.Outcome{Failed: true, FaultKind: "config-error"} // zero service
				case 1:
					o.Failed = true
				case 2: // whole periods: completions coincide with later arrivals
					o.Service = sim.Time(float64(1+src.Intn(4)) * period)
				}
				spec := specs[mix.Intn(len(specs))]
				tr.Entries = append(tr.Entries, workload.TraceEntry{At: at, Tenant: tr.Tenants[src.Intn(len(tr.Tenants))], Spec: spec})
				outcomes = append(outcomes, o)
			}
		}

		res, err := loadgen.Replay(tr, outcomes, cfg)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		want, e := referenceReplay(tr, outcomes, cfg)
		edges += e
		for i, w := range want {
			r := res.Requests[i]
			if got := (refRow{r.Wait, r.Latency, r.Outcome}); got != w {
				t.Fatalf("seed %d (%+v) request %d of %d: kernel %+v, closed form %+v", seed, cfg, i, len(want), got, w)
			}
			if w.outcome == loadgen.OutcomeThrottled {
				throttled++
			} else if w.wait > 0 {
				queued++
			}
		}
	}
	// The streams must actually reach the cases they were built for.
	t.Logf("%d edge decisions, %d throttled, %d queued", edges, throttled, queued)
	if edges < 100 || throttled < 100 || queued < 1000 {
		t.Fatalf("streams too tame: %d edge decisions, %d throttled, %d queued", edges, throttled, queued)
	}
}
