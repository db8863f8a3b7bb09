package main

import (
	"fmt"
	"math"
	"sync"
	"time"

	"repro/internal/serve"
)

// runOpts is one invocation: one workload, one pass.
type runOpts struct {
	workload string
	seed     uint64
	seconds  float64
	traced   bool
	smoke    bool // one set-up, one cycle, short micro passes: for the tests
	traceOut string
	golden   *golden
	sloMS    float64 // filled in from the workload's definition
}

// runResult is what one invocation measured.
type runResult struct {
	Workload  string            `json:"workload"`
	Seed      uint64            `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Traced    bool              `json:"traced"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Correct   bool              `json:"correct"`
	Problems  []string          `json:"problems,omitempty"`
	Metrics   map[string]metric `json:"metrics"`
	// Readings are what an untraced pass measured beyond the end-to-end
	// metrics BENCHMARK.json bounds: the speed numbers, which this box
	// cannot hold steady enough for a bound (see README.md). conform
	// moves them here; they are printed and kept, not in the contract
	// line.
	Readings map[string]metric `json:"readings,omitempty"`
	Spans    []spanSummary     `json:"spans,omitempty"`
	Observed *golden           `json:"observed,omitempty"`
}

// workloadDef is the fixed part of a workload: what BENCHMARK.json and
// the README say about it, in code.
type workloadDef struct {
	name string
	// sloMS is the latency limit slo_met_share counts against: a few
	// times the median, so it is the tail that moves it.
	sloMS float64
	// tailWant is the percentile latency_tail_ms aims for; see
	// tailPercentile.
	tailWant float64
	// exactVirtual says the core.*/hostos.* per-job numbers repeat
	// exactly for a seed. They do wherever the benchmark decides which
	// board runs which job; on fleet_open the placement policy decides,
	// from live queue depths, so only the per-(manager, spec) times are
	// exact there.
	exactVirtual bool
	build        func(o runOpts, chk *checker) driver
}

// driver is one workload's moving parts. The measuring around it — set-up
// repeats, the two legs of a traced pass, the common metrics — is shared.
type driver interface {
	// setUp builds inputs, fills caches and runs warm-up ops; whatever a
	// previous call built is torn down first.
	setUp() error
	// drive issues whole cycles of ops until the deadline passes (always
	// at least one) and returns what happened to them.
	drive(deadline time.Time, tr *tracer) *opLog
	// layers adds the per-layer metrics this workload measures: from the
	// traced leg's spans, from the layers' own counters, and from micro
	// passes it runs now.
	layers(tr *tracer, m map[string]metric) error
	tearDown()
}

var workloads = []workloadDef{
	{name: "warm_http", sloMS: 10, tailWant: 0.99, exactVirtual: true, build: newWarmHTTP},
	{name: "cold_node", sloMS: 200, tailWant: 0.90, exactVirtual: true, build: newColdNode},
	{name: "fleet_open", sloMS: 50, tailWant: 0.99, exactVirtual: false, build: newFleetOpen},
	{name: "harness", sloMS: 1500, tailWant: 0.75, exactVirtual: true, build: newHarness},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// Set-up runs several times in an untraced pass and setup_s is the
// median: at least setupMinReps times, and on until setupMinTime has gone
// into it or it has run setupMaxReps times. The first repeats cost more
// than the rest — the cold process pays page faults and heap growth, and
// the harness's first two to four passes fill its process-wide cache — so
// the median has to sit well past them: with three repeats it landed on
// either side of that edge from one seed to the next.
const (
	setupMinReps = 5
	setupMaxReps = 15
	setupMinTime = 6 * time.Second
)

// runOne measures one workload once.
func runOne(o runOpts) (*runResult, error) {
	def, ok := findWorkload(o.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	o.sloMS = def.sloMS
	chk := newChecker(o.golden)
	d := def.build(o, chk)
	defer d.tearDown()

	var setupCPU, setupWall []float64
	for spent := time.Duration(0); ; {
		c0, t0 := cpuSeconds(), time.Now()
		if err := d.setUp(); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", def.name, err)
		}
		setupCPU = append(setupCPU, cpuSeconds()-c0)
		setupWall = append(setupWall, time.Since(t0).Seconds())
		spent += time.Since(t0)
		n := len(setupCPU)
		if o.traced || o.smoke || n >= setupMaxReps || (n >= setupMinReps && spent >= setupMinTime) {
			break
		}
	}

	res := &runResult{Workload: def.name, Seed: o.seed, Seconds: o.seconds, Traced: o.traced}
	legTime := time.Duration(o.seconds * float64(time.Second))
	if o.traced {
		legTime /= 2
	}

	// The untraced leg. On an untraced pass it is the whole measurement;
	// on a traced pass it is the baseline tracing overhead is taken
	// against, and the source of the wall-clock readings tracing itself
	// would bend.
	before := startUsage()
	log := d.drive(before.at.Add(legTime), nil)
	after := endUsage()
	all := endToEnd(log, before, after)
	all["setup_s"] = metric{Value: median(setupCPU), Unit: "s", N: int64(len(setupCPU))}
	all["setup_wall_s"] = metric{Value: median(setupWall), Unit: "s", N: int64(len(setupWall))}
	if v := &log.virt; v.jobs > 0 {
		all["virtual_ms_per_op"] = metric{Value: float64(v.makespanNS) / 1e6 / float64(v.jobs), Unit: "virtual_ms", N: v.jobs}
	}
	res.Attempted, res.Failed = int64(len(log.latMS)), log.failed

	if !o.traced {
		res.Metrics = all
	} else {
		tr := newTracer()
		tb := startUsage()
		tlog := d.drive(tb.at.Add(legTime), tr)
		ta := endUsage()
		res.Attempted += int64(len(tlog.latMS))
		res.Failed += tlog.failed

		m := wallReadings(def, log, before, after, all)
		log.virt.metrics(m)
		un, trd := all["throughput_ops_s"].Value, endToEnd(tlog, tb, ta)["throughput_ops_s"].Value
		m["trace.traced_ops_s"] = metric{Value: trd, Unit: "1/s", N: int64(len(tlog.latMS))}
		if un > 0 {
			m["trace.overhead_share"] = metric{Value: (un - trd) / un, Unit: "ratio"}
		}
		m["trace.spans"] = metric{Value: float64(tr.count()), Unit: "count"}
		if err := d.layers(tr, m); err != nil {
			return nil, fmt.Errorf("%s: per-layer pass: %w", def.name, err)
		}
		res.Metrics = m
		res.Spans = tr.summary()
		if o.traceOut != "" {
			if err := tr.write(o.traceOut, def.name, o.seed); err != nil {
				return nil, err
			}
		}
	}

	res.Problems = chk.failures()
	res.Correct = res.Failed == 0 && len(res.Problems) == 0
	res.Observed = chk.observed()
	return res, nil
}

// wallReadings are the whole-workload numbers that carry no bound: what
// the clocks said, the tail, the share inside the latency limit, the heap
// the leg left behind.
func wallReadings(def workloadDef, log *opLog, before, after usage, all map[string]metric) map[string]metric {
	m := map[string]metric{}
	for _, name := range []string{"latency_p50_ms", "throughput_ops_s", "ops_per_cpu_s", "setup_wall_s"} {
		m[name] = all[name]
	}
	sorted := sortedCopy(log.latMS)
	n := int64(len(sorted))
	p := tailPercentile(len(sorted), def.tailWant)
	m["latency_tail_ms"] = metric{Value: quantile(sorted, p), Unit: "ms", N: n}
	m["latency_tail_pct"] = metric{Value: p * 100, Unit: "%"}
	m["slo_met_share"] = metric{Value: float64(n-log.missed) / float64(n), Unit: "ratio", N: n}
	ops := n - log.failed
	m["heap_retained_kb_per_op"] = metric{Value: (float64(after.heapLive) - float64(before.heapLive)) / 1024 / math.Max(float64(ops), 1), Unit: "KiB", N: ops}
	return m
}

// dealer hands op indices to the clients of a closed loop and stops at a
// cycle boundary once the deadline has passed, so a leg is always a whole
// number of cycles: every leg then runs the same multiset of ops however
// long it lasts, which keeps per-op averages comparable between runs and
// virtual totals exact.
type dealer struct {
	cycle    int
	deadline time.Time
	oneCycle bool

	mu      sync.Mutex
	next    int
	stopped bool
}

func (d *dealer) draw() (int, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.stopped {
		return 0, false
	}
	if d.next > 0 && d.next%d.cycle == 0 && (d.oneCycle || !time.Now().Before(d.deadline)) {
		d.stopped = true
		return 0, false
	}
	i := d.next
	d.next++
	return i, true
}

// engineCounts is the part of one engine's core.MetricsSnapshot the
// benchmark reads; the JSON names are the wire form's.
type engineCounts struct {
	Loads        int64 `json:"loads"`
	Evictions    int64 `json:"evictions"`
	ConfigTime   int64 `json:"config_time_ns"`
	ReadbackTime int64 `json:"readback_time_ns"`
	RestoreTime  int64 `json:"restore_time_ns"`
}

// jobResult is the part of serve.JobResult the benchmark reads, in a form
// both the HTTP client (decoded from JSON) and the in-process callers
// (copied from the struct) fill.
type jobResult struct {
	Makespan    int64          `json:"makespan_ns"`
	CtxSwitches int64          `json:"ctx_switches"`
	LintClean   bool           `json:"lint_clean"`
	Metrics     []engineCounts `json:"metrics"`
}

func fromServe(r *serve.JobResult) *jobResult {
	if r == nil {
		return nil
	}
	out := &jobResult{Makespan: int64(r.Makespan), CtxSwitches: r.CtxSwitches, LintClean: r.LintClean}
	for _, m := range r.Metrics {
		out.Metrics = append(out.Metrics, engineCounts{
			Loads: m.Loads, Evictions: m.Evictions, ConfigTime: int64(m.ConfigTime),
			ReadbackTime: int64(m.ReadbackTime), RestoreTime: int64(m.RestoreTime),
		})
	}
	return out
}

// virtAcc sums the model's own (virtual-time) accounting over the first
// window ops of a leg, so the per-job figures do not depend on how many
// cycles the leg had time for.
type virtAcc struct {
	window                            int
	jobs                              int64
	makespanNS, configNS, rbRestoreNS int64
	loads, evictions, ctxSwitches     int64
}

func (v *virtAcc) addJob(i int, r *jobResult) {
	if i >= v.window || r == nil {
		return
	}
	v.jobs++
	v.makespanNS += r.Makespan
	v.ctxSwitches += r.CtxSwitches
	for _, m := range r.Metrics {
		v.loads += m.Loads
		v.evictions += m.Evictions
		v.configNS += m.ConfigTime
		v.rbRestoreNS += m.ReadbackTime + m.RestoreTime
	}
}

func (v *virtAcc) merge(o *virtAcc) {
	v.jobs += o.jobs
	v.makespanNS += o.makespanNS
	v.configNS += o.configNS
	v.rbRestoreNS += o.rbRestoreNS
	v.loads += o.loads
	v.evictions += o.evictions
	v.ctxSwitches += o.ctxSwitches
}

func (v *virtAcc) metrics(m map[string]metric) {
	per := func(total int64, scale float64) float64 {
		if v.jobs == 0 {
			return 0
		}
		return float64(total) / scale / float64(v.jobs)
	}
	m["core.virtual_ms_per_job"] = metric{Value: per(v.makespanNS, 1e6), Unit: "virtual_ms", N: v.jobs}
	m["core.config_virtual_ms_per_job"] = metric{Value: per(v.configNS, 1e6), Unit: "virtual_ms", N: v.jobs}
	m["core.readback_restore_virtual_ms_per_job"] = metric{Value: per(v.rbRestoreNS, 1e6), Unit: "virtual_ms", N: v.jobs}
	m["core.loads_per_job"] = metric{Value: per(v.loads, 1), Unit: "count", N: v.jobs}
	m["core.evictions_per_job"] = metric{Value: per(v.evictions, 1), Unit: "count", N: v.jobs}
	m["hostos.ctx_switches_per_job"] = metric{Value: per(v.ctxSwitches, 1), Unit: "count", N: v.jobs}
}
