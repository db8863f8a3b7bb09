package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/bitstream"
	"repro/internal/compile"
	"repro/internal/fabric"
	"repro/internal/netlist"
	"repro/internal/serve"
	"repro/internal/stats"
	"repro/internal/workload"
)

// promValue reads one series from a Prometheus text exposition.
func promValue(text []byte, series string) (float64, bool) {
	for _, line := range strings.Split(string(text), "\n") {
		if rest, ok := strings.CutPrefix(line, series+" "); ok {
			v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
			return v, err == nil
		}
	}
	return 0, false
}

// timeCalls runs fn n times and returns each call's duration in the
// given unit (nanoseconds per unit).
func timeCalls(n int, unit float64, fn func()) []float64 {
	out := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		fn()
		out = append(out, float64(time.Since(t0))/unit)
	}
	return out
}

func p50Of(d []float64, unit string) metric {
	return metric{Value: median(d), Unit: unit, N: int64(len(d))}
}

// cacheMetrics reports a strip cache's counters.
func cacheMetrics(m map[string]metric, cs compile.CacheStats) {
	m["compile.cache_hit_rate"] = metric{Value: cs.HitRate(), Unit: "ratio", N: cs.Lookups()}
	m["compile.cache_misses"] = metric{Value: float64(cs.Misses), Unit: "count"}
	m["compile.cache_dedups"] = metric{Value: float64(cs.Dedups), Unit: "count"}
	m["compile.cache_evictions"] = metric{Value: float64(cs.Evictions), Unit: "count"}
}

func (w *warmHTTP) layers(tr *tracer, m map[string]metric) error {
	reps := 200
	if w.o.smoke {
		reps = 5
	}
	// From the traced leg's spans.
	m["serve.http_submit_us"] = tr.p50("serve.http_submit", 1e3, "us")
	m["serve.http_status_us"] = tr.p50("serve.http_status", 1e3, "us")
	m["serve.boards_us"] = tr.p50("serve.boards", 1e3, "us")
	m["serve.metrics_scrape_us"] = tr.p50("serve.metrics_scrape", 1e3, "us")
	m["workload.decode_us"] = tr.p50("workload.decode", 1e3, "us")
	m["workload.build_us"] = tr.p50("workload.build", 1e3, "us")
	m["serve.admit_ns"] = tr.p50("serve.admit", 1, "ns")
	m["compile.cache_hit_ns"] = tr.p50("compile.cache_lookup", 1, "ns")
	m["serve.pool_job_us"] = tr.p50("serve.pool_job", 1e3, "us")

	// From what the clients counted.
	c := &w.last
	if c.jobs > 0 {
		m["serve.polls_per_job"] = metric{Value: float64(c.polls) / float64(c.jobs), Unit: "count", N: c.jobs}
	}
	m["serve.http_status_bytes"] = p50Of(c.statusBytes, "bytes")
	m["serve.http_status_bytes_traced"] = p50Of(c.statusBytesTraced, "bytes")
	for b, mgr := range serve.Managers {
		us := make([]float64, len(c.byBoard[b]))
		for i, ms := range c.byBoard[b] {
			us[i] = ms * 1e3
		}
		m["serve.job_us."+mgr] = p50Of(us, "us")
	}
	// Every trace:true job of the mix is a synthetic one, so the fair
	// comparison is against the plain synthetic jobs.
	m["serve.trace_extra_us"] = metric{Value: (median(c.synthTrace) - median(c.synthPlain)) * 1e3,
		Unit: "us", N: int64(len(c.synthTrace))}

	// From the daemon's own read paths, after the last job.
	cl := &httpClient{h: w.h}
	var text []byte
	m["serve.metrics_scrape_end_us"] = p50Of(timeCalls(5, 1e3, func() {
		_, body, _ := cl.do(http.MethodGet, "/metrics", nil)
		text = append(text[:0], body...)
	}), "us")
	var cs compile.CacheStats
	for series, dst := range map[string]*int64{
		`vfpgad_compile_cache_lookups_total{result="hit"}`:   &cs.Hits,
		`vfpgad_compile_cache_lookups_total{result="miss"}`:  &cs.Misses,
		`vfpgad_compile_cache_lookups_total{result="dedup"}`: &cs.Dedups,
		`vfpgad_compile_cache_evictions_total`:               &cs.Evictions,
	} {
		v, ok := promValue(text, series)
		if !ok {
			return fmt.Errorf("/metrics has no series %s", series)
		}
		*dst = int64(v)
	}
	cacheMetrics(m, cs)
	_, body, _ := cl.do(http.MethodGet, "/v1/boards", nil)
	var infos []serve.BoardInfo
	if err := json.Unmarshal(body, &infos); err != nil {
		return fmt.Errorf("/v1/boards: %w", err)
	}
	var warm, cold int64
	for _, bi := range infos {
		warm += bi.WarmResets
		cold += bi.ColdResets
	}
	if warm+cold > 0 {
		m["serve.warm_reset_share"] = metric{Value: float64(warm) / float64(warm+cold), Unit: "ratio", N: warm + cold}
	}

	// Micro passes on objects the benchmark owns.
	r := w.replay
	tm := fabric.DefaultTiming()
	geo := fabric.DefaultGeometry()
	bc := boardFor("dynamic", warmQueueDepth)
	var verify []float64
	seen := map[string]bool{}
	for _, js := range w.mix.distinct() {
		set, err := js.spec.Build()
		if err != nil {
			return err
		}
		for k, nl := range set.Circuits {
			if seen[nl.Name] {
				continue
			}
			seen[nl.Name] = true
			circ, err := r.cache.CompileStrip(nl, bc.Rows, geo.TracksPerChannel, compile.Options{Seed: bc.Seed + uint64(k), Timing: &tm})
			if err != nil {
				return err
			}
			verify = append(verify, timeCalls(1, 1e3, func() { compile.Verify(circ) })...)
		}
	}
	m["lint.verify_us"] = p50Of(verify, "us")

	if err := fabricMicro(m, reps); err != nil {
		return err
	}

	sample := stats.NewSample(true)
	src := stream(w.o.seed, streamSample)
	for i := 0; i < 20000; i++ {
		sample.Observe(src.Float64())
	}
	m["stats.quantile_us_n20k"] = p50Of(timeCalls(min(reps, 20), 1e3, func() { sample.Quantile(0.5) }), "us")

	// The fixed cost of a job on a warm board, and what each further
	// simulated op adds to it.
	job := func(tasks, ops int) jobSpec {
		sy := workload.DefaultSynthetic()
		sy.Tasks, sy.OpsPerTask, sy.EvalsPerOp = tasks, ops, 1000
		js, err := newJobSpec(workload.Spec{Scenario: "synthetic", Synthetic: &sy})
		if err != nil {
			panic(err) // a struct of ints and strings always encodes
		}
		return js
	}
	small, big := job(1, 1), job(8, 32)
	r.poolJob(0, &small)
	r.poolJob(0, &big)
	floor := timeCalls(reps, 1e3, func() { r.poolJob(0, &small) })
	m["serve.job_floor_us"] = p50Of(floor, "us")
	bigUS := timeCalls(min(reps, 50), 1e3, func() { r.poolJob(0, &big) })
	m["core.sim_us_per_op"] = metric{Value: (median(bigUS) - median(floor)) / (8*32 - 1), Unit: "us", N: int64(len(bigUS))}

	// A new node that finds the fleet's cache already warm: the stack is
	// built, nothing is compiled.
	mm := w.mix.fixed[1]
	var buildErr error
	m["serve.rebuild_us"] = p50Of(timeCalls(min(reps, 20), 1e3, func() {
		p, err := serve.NewPool([]serve.BoardConfig{bc}, serve.PoolOptions{Cache: r.cache})
		if err != nil {
			buildErr = err
			return
		}
		p.Start()
		spec := mm.spec
		if j, err := p.Submit(serve.SubmitArgs{Tenant: "rebuild", Spec: &spec}); err == nil {
			<-j.Done()
		} else {
			buildErr = err
		}
		p.Drain()
	}), "us")
	return buildErr
}

// fabricMicro times the device model's two hot calls on a configured
// counter16: one clock step, and one bitstream download.
func fabricMicro(m map[string]metric, reps int) error {
	circ, err := compile.Compile(netlist.Counter(16), compile.Options{Seed: 1})
	if err != nil {
		return err
	}
	bs := circ.BS
	dev := fabric.NewDevice(fabric.DefaultGeometry())
	bind := &bitstream.PinBinding{In: make([]int, bs.NumIn), Out: make([]int, bs.NumOut)}
	for i := range bind.In {
		bind.In[i] = i
	}
	for i := range bind.Out {
		bind.Out[i] = bs.NumIn + i
	}
	var applyErr error
	m["fabric.apply_us"] = p50Of(timeCalls(reps, 1e3, func() {
		//vfpgavet:ignore ledgeronly -- a scratch device no ledger owns: the micro pass times the download call itself
		if _, _, err := bs.Apply(dev, 0, 0, bind); err != nil {
			applyErr = err
		}
	}), "us")
	if applyErr != nil {
		return applyErr
	}
	var stepErr error
	m["fabric.step_ns"] = p50Of(timeCalls(reps*10, 1, func() {
		if _, err := dev.Step(); err != nil {
			stepErr = err
		}
	}), "ns")
	return stepErr
}
