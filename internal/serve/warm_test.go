package serve

// The warm-board contract: a job run on a board's recycled hardware is
// byte-identical to the same job on a freshly built board — tasks,
// metrics, lint, merged timeline, even the typed error when a fault
// escalates — for every manager, with and without faults, with and
// without tracing, independent of what ran on the board before.

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"sort"
	"testing"
	"time"

	"repro/internal/baseline"
	"repro/internal/compile"
	"repro/internal/fault"
	"repro/internal/workload"
)

func specFor(t testing.TB, scenario string) *workload.Spec {
	t.Helper()
	s, err := workload.BuiltinSpec(scenario)
	if err != nil {
		t.Fatal(err)
	}
	return &s
}

// recoverablePlan injects faults with enough retry budget that most jobs
// complete (with fault metrics); when one does escalate, warm and fresh
// must escalate identically.
func recoverablePlan(t testing.TB) *fault.Plan {
	t.Helper()
	plan, err := fault.ParseSpec("seed=7,retries=2,backoff=20us,config-error=0.2,readback-flip=0.1")
	if err != nil {
		t.Fatal(err)
	}
	return &plan
}

// encodeOutcome renders a (result, error) pair for byte comparison.
func encodeOutcome(t testing.TB, res *JobResult, err error) []byte {
	t.Helper()
	if err != nil {
		return []byte("error: " + err.Error())
	}
	b, jerr := json.Marshal(res)
	if jerr != nil {
		t.Fatal(jerr)
	}
	return b
}

func TestWarmResetEquivalence(t *testing.T) {
	// Two scenarios alternating: every job after a board's first runs on
	// the hardware a different circuit set left — under overlay and
	// merged too, which download the new set into it. The warm side builds
	// its sets through a set cache, as a pool does, so the last two jobs
	// run a set an earlier job ran; the fresh side builds every set anew.
	scenarios := []string{"multimedia", "telecom", "multimedia", "telecom"}
	for _, mgr := range Managers {
		for _, withFaults := range []bool{false, true} {
			for _, withTrace := range []bool{false, true} {
				name := fmt.Sprintf("%s/faults=%v/trace=%v", mgr, withFaults, withTrace)
				t.Run(name, func(t *testing.T) {
					bc := DefaultBoardConfig()
					bc.Manager = mgr
					if withFaults {
						bc.Faults = recoverablePlan(t)
					}
					cache := compile.NewStripCache(compile.DefaultCacheCapacity)
					var sets workload.SetCache
					var st *baseline.Stack
					warmRuns := 0
					for i, scenario := range scenarios {
						spec := specFor(t, scenario)
						warm := st != nil
						if warm {
							warmRuns++
						}
						var gotRes *JobResult
						var gotErr error
						if st, gotRes, gotErr = runSpec(&sets, cache, bc, st, spec, withTrace); gotErr != nil {
							st = nil // what the pool does: discard on any failure
						}
						wantRes, wantErr := runJob(cache, bc, spec, withTrace)
						got := encodeOutcome(t, gotRes, gotErr)
						want := encodeOutcome(t, wantRes, wantErr)
						if string(got) != string(want) {
							t.Errorf("job %d (%s, warm=%v) diverged from fresh rebuild:\n--- warm ---\n%s\n--- fresh ---\n%s",
								i, scenario, warm, got, want)
						}
					}
					if hits := sets.Stats().Hits; hits != 2 {
						t.Errorf("%d set-cache hits, want 2: the repeated scenarios", hits)
					}
					if warmRuns == 0 || !withFaults && warmRuns != len(scenarios)-1 {
						t.Errorf("%d of %d jobs ran on recycled hardware; without a failure every one after the first must",
							warmRuns, len(scenarios))
					}
				})
			}
		}
	}
}

// TestPoolWarmCounters drives real jobs through the pool and checks the
// warm/cold accounting surfaced on BoardInfo: a board builds on new
// hardware once, whatever circuit sets follow — under overlay and merged
// too, which configure the device from the set.
func TestPoolWarmCounters(t *testing.T) {
	managers := []string{"dynamic", "overlay", "merged"}
	cfg := Config{Tenant: TenantLimits{Rate: 0}}
	for _, mgr := range managers {
		bc := DefaultBoardConfig()
		bc.Manager = mgr
		cfg.Boards = append(cfg.Boards, bc)
	}
	s := newTestServer(t, cfg)
	s.Start()
	defer s.Drain()
	for board, mgr := range managers {
		for _, scenario := range []string{"multimedia", "telecom", "multimedia"} {
			j, err := s.pool.Submit(SubmitArgs{Tenant: "acme", Spec: specFor(t, scenario), Board: &board})
			if err != nil {
				t.Fatal(err)
			}
			waitDone(t, j)
			if st := j.Status(); st.State != StateDone {
				t.Fatalf("%s: %s job ended %s (%s)", mgr, scenario, st.State, st.Error)
			}
		}
		bi := s.pool.boards[board].info()
		if bi.ColdResets != 1 || bi.WarmResets != 2 {
			t.Errorf("%s: resets = %d cold / %d warm, want 1/2", mgr, bi.ColdResets, bi.WarmResets)
		}
		if !bi.Warm {
			t.Errorf("%s: board should report resident hardware: %+v", mgr, bi)
		}
	}
}

// TestBoardsShareCachedSet runs one cached set on two boards of a pool
// at once: a set is read-only, so sharing it is sound only while no job
// writes to it, which the race detector checks (`make race` repeats this
// test). Both jobs read as the same job on a new board with a set of its
// own.
func TestBoardsShareCachedSet(t *testing.T) {
	bc := DefaultBoardConfig()
	p, err := NewPool([]BoardConfig{bc, bc}, PoolOptions{})
	if err != nil {
		t.Fatal(err)
	}
	p.Start()
	defer p.Drain()
	spec := specFor(t, "multimedia")
	submit := func(board int) *Job {
		j, err := p.Submit(SubmitArgs{Tenant: "acme", Spec: spec, Board: &board})
		if err != nil {
			t.Fatal(err)
		}
		return j
	}
	<-submit(0).Done() // builds the set and caches it
	jobs := []*Job{submit(0), submit(1)}
	want, wantErr := runJob(compile.NewStripCache(0), bc, spec, false)
	for board, j := range jobs {
		<-j.Done()
		st := j.Status()
		if st.State != StateDone {
			t.Fatalf("board %d: job ended %s (%s)", board, st.State, st.Error)
		}
		if got, want := encodeOutcome(t, st.Result, nil), encodeOutcome(t, want, wantErr); string(got) != string(want) {
			t.Errorf("board %d: a job on the shared set diverged from a fresh one:\n%s\n%s", board, got, want)
		}
	}
	if st := p.sets.Stats(); st.Misses != 1 || st.Hits != 2 {
		t.Errorf("set cache %+v, want 1 miss and 2 hits", st)
	}
}

var canaryCache = compile.NewStripCache(compile.DefaultCacheCapacity)

// TestDeliveredResultOutlivesBoard is the aliasing canary of the warm
// path: a board renews its engines, manager and host OS in place for
// each job and carves the next job's records from the last job's
// arrays, so a
// result that pointed into them would change under a later job. For
// every manager, a traced job's status encodes to the same bytes after
// a larger job and then a smaller one ran on the same board. The pools
// share one strip cache, across repeated runs too (`make race` repeats
// this test): the canary is about the job path, not the compile.
func TestDeliveredResultOutlivesBoard(t *testing.T) {
	synthetic := func(tasks int) *workload.Spec {
		syn := workload.DefaultSynthetic()
		syn.Tasks = tasks
		return &workload.Spec{Scenario: "synthetic", Synthetic: &syn}
	}
	for _, mgr := range Managers {
		t.Run(mgr, func(t *testing.T) {
			bc := DefaultBoardConfig()
			bc.Manager = mgr
			p, err := NewPool([]BoardConfig{bc}, PoolOptions{Cache: canaryCache})
			if err != nil {
				t.Fatal(err)
			}
			p.Start()
			defer p.Drain()
			job := func(spec *workload.Spec, trace bool) *Job {
				j, err := p.Submit(SubmitArgs{Tenant: "acme", Spec: spec, Trace: trace})
				if err != nil {
					t.Fatal(err)
				}
				<-j.Done()
				if st := j.Status(); st.State != StateDone {
					t.Fatalf("job ended %s (%s)", st.State, st.Error)
				}
				return j
			}
			a := job(synthetic(6), true)
			before, err := json.Marshal(a.Status())
			if err != nil {
				t.Fatal(err)
			}
			job(synthetic(12), false)
			job(synthetic(2), true)
			after, err := json.Marshal(a.Status())
			if err != nil {
				t.Fatal(err)
			}
			if string(after) != string(before) {
				t.Errorf("the first job's status changed under the jobs after it:\nbefore: %s\nafter:  %s", before, after)
			}
			if bi := p.boards[0].info(); bi.WarmResets != 2 {
				t.Errorf("%d warm resets, want the two later jobs", bi.WarmResets)
			}
		})
	}
}

// TestWarmJobAllocBudget pins what a warm job allocates, Submit to
// Done(), under each of the nine managers, so the warm path's gains
// cannot erode silently: the circuits come from the shared library, the
// device and the kernel's event arrays from the board's last job, the
// event loop and a clean lint pass allocate nothing per event or per
// CLB, and what is left is the job's own loads and result: the engines,
// the manager and the host OS are the last job's, renewed in place — the
// manager's maps emptied, its column map's span objects, strip and slot
// arrays, frame table and scratch kept — the programs come from the
// pool's set cache, the audit's tables from the audit before, the Task
// records, residency entries and pins from the arrays the last job's OS
// and ledger carved them from, sized to all that job carved. Budgets sit
// ~15 % above what the path reads today, plain or under the race
// detector, whichever is higher (multimedia, allocations and KiB per
// job: dynamic 12 and 1.6, partition 12 and 1.5, amorphous 12 and 1.4,
// paged 12 and 1.3, multi 12 and 1.4, overlay 13 and 1.5, exclusive 12
// and 1.5, software 12 and 1.3, merged 13 and 1.3, the race detector's
// readings where they are higher). While the end-of-job audit made its
// targets and region views anew and every job made the circuit-name
// list only overlay and merged read, they read dynamic 15 and 1.7,
// partition 16 and 1.6, amorphous 16 and 2.0, paged 14 and 1.4, multi 22
// and 1.9, overlay 15 and 1.6, exclusive 15 and 1.5, software 14 and
// 1.4, merged 14 and 1.4. While each job built
// a new manager they read 21 and 2.0, 40 and 3.0, 53 and 4.6, 40 and 5.9,
// 62 and 4.3, 25 and 2.2, 22 and 1.7, 16 and 1.5, 18 and 1.7; dynamic
// and paged read 44 and 11.3 KiB, 56 and 8.4 KiB while each job built
// new engines and a new host OS; 110 and 14.6 KiB, 65 and 8.5 KiB while
// each task, download and strip had records of its own; 136 and 32.7
// KiB, 88 and 26.3 KiB while every job built its set and its audit
// tables; 142 and 94 while each task carried two closures of its own;
// 170 and 63.9 KiB, 123 and 55.6 KiB while the generators grew each
// program by doubling; 1 838 and 1 670 allocations before the warm job
// path).
func TestWarmJobAllocBudget(t *testing.T) {
	for _, tc := range []struct {
		manager   string
		budget    float64
		budgetKiB float64
	}{
		{"dynamic", 14, 1.8},
		{"partition", 14, 1.7},
		{"amorphous", 14, 1.6},
		{"paged", 14, 1.5},
		{"multi", 14, 1.6},
		{"overlay", 15, 1.7},
		{"exclusive", 14, 1.7},
		{"software", 14, 1.5},
		{"merged", 15, 1.5},
	} {
		t.Run(tc.manager, func(t *testing.T) {
			bc := DefaultBoardConfig()
			bc.Manager = tc.manager
			p, err := NewPool([]BoardConfig{bc}, PoolOptions{})
			if err != nil {
				t.Fatal(err)
			}
			p.Start()
			defer p.Drain()
			spec := specFor(t, "multimedia")
			job := func() {
				j, err := p.Submit(SubmitArgs{Tenant: "acme", Spec: spec})
				if err != nil {
					t.Fatal(err)
				}
				<-j.Done()
				if st := j.Status(); st.State != StateDone || !st.Result.LintClean {
					t.Fatalf("job ended %s (%s)", st.State, st.Error)
				}
			}
			job() // compiles the circuits and builds the board: the cold job
			const runs = 20
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < runs; i++ {
				job()
			}
			runtime.ReadMemStats(&after)
			got := float64(after.Mallocs-before.Mallocs) / runs
			kib := float64(after.TotalAlloc-before.TotalAlloc) / runs / 1024
			t.Logf("%s: %.0f allocations, %.1f KiB per warm job", tc.manager, got, kib)
			if got > tc.budget {
				t.Errorf("%s: a warm job allocates %.0f times, budget %.0f", tc.manager, got, tc.budget)
			}
			if kib > tc.budgetKiB {
				t.Errorf("%s: a warm job allocates %.1f KiB, budget %.1f", tc.manager, kib, tc.budgetKiB)
			}
			if bi := p.boards[0].info(); bi.ColdResets != 1 {
				t.Errorf("%s: %d cold resets, want the first job's only", tc.manager, bi.ColdResets)
			}
		})
	}
}

// TestNewPoolByteBudget bounds what a pool costs before its circuits
// compile: NewPool, Start, one job on a board built for it, Drain, with
// the strip cache shared and already warm. The budget is the reading
// (25.9 KiB in 89 allocations, 26.5 under the race detector) plus ~10 %,
// so a per-pool fixed cost that grows fails here, not only in the repo
// benchmark's cold_node: the pool read 51.5 KiB in 84 allocations while
// the new board's device made its whole configuration RAM up front, not
// a block per column it configures, and 67.2 KiB while its two
// service-time recorders held all 960 buckets each.
func TestNewPoolByteBudget(t *testing.T) {
	const budgetKiB = 29
	bc := DefaultBoardConfig()
	spec := specFor(t, "multimedia")
	cache := compile.NewStripCache(compile.DefaultCacheCapacity)
	pool := func() {
		p, err := NewPool([]BoardConfig{bc}, PoolOptions{Cache: cache})
		if err != nil {
			t.Fatal(err)
		}
		p.Start()
		j, err := p.Submit(SubmitArgs{Tenant: "acme", Spec: spec})
		if err != nil {
			t.Fatal(err)
		}
		<-j.Done()
		if st := j.Status(); st.State != StateDone {
			t.Fatalf("job ended %s (%s)", st.State, st.Error)
		}
		p.Drain()
	}
	pool() // compiles the circuits into the shared cache
	const runs = 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		pool()
	}
	runtime.ReadMemStats(&after)
	kib := float64(after.TotalAlloc-before.TotalAlloc) / runs / 1024
	t.Logf("%.1f KiB, %.0f allocations per pool", kib, float64(after.Mallocs-before.Mallocs)/runs)
	if kib > budgetKiB {
		t.Errorf("a pool with one warm-cache job allocates %.1f KiB, budget %d", kib, budgetKiB)
	}
}

// BenchmarkJobColdVsWarm measures what a warm board saves: serving a job
// on recycled hardware with the circuits cached vs. the true cold start
// (fresh compile cache — place and route included).
func BenchmarkJobColdVsWarm(b *testing.B) {
	bc := DefaultBoardConfig()
	spec := specFor(b, "multimedia")
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			cache := compile.NewStripCache(compile.DefaultCacheCapacity)
			if _, err := runJob(cache, bc, spec, false); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("warm", func(b *testing.B) {
		warm := warmedRun(b, bc, spec)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			warm()
		}
	})
}

// discard is a ResponseWriter that counts the body and keeps nothing.
type discard struct {
	h http.Header
	n int
}

func (d *discard) Header() http.Header         { return d.h }
func (d *discard) WriteHeader(int)             {}
func (d *discard) Write(p []byte) (int, error) { d.n += len(p); return len(p), nil }

// TestWriteJSONAllocs pins what one small response costs WriteJSON on a
// writer whose header map it has filled before: the encoder and nothing
// else. Setting Content-Type with Header.Set made a one-string slice per
// response.
func TestWriteJSONAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector defeats escape analysis")
	}
	w := &discard{h: http.Header{}}
	body := ErrorBody{Error: "job expired"}
	n := testing.AllocsPerRun(100, func() { WriteJSON(w, http.StatusGone, body) })
	if got := w.h.Get("Content-Type"); got != "application/json" {
		t.Fatalf("Content-Type %q, want application/json", got)
	}
	if n > 1 {
		t.Errorf("WriteJSON allocates %.0f times a response, want at most 1", n)
	}
}

// BenchmarkStatusEncode is the poll that ends a job: a terminal
// multimedia JobStatus through WriteJSON, without and with its timeline.
func BenchmarkStatusEncode(b *testing.B) {
	for _, withTrace := range []bool{false, true} {
		name := "plain"
		if withTrace {
			name = "trace"
		}
		b.Run(name, func(b *testing.B) {
			res, err := runJob(compile.NewStripCache(compile.DefaultCacheCapacity), DefaultBoardConfig(), specFor(b, "multimedia"), withTrace)
			if err != nil {
				b.Fatal(err)
			}
			st := JobStatus{ID: "j000001", Tenant: "acme", State: StateDone, Result: res}
			w := &discard{h: http.Header{}}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				WriteJSON(w, http.StatusOK, st)
			}
			b.ReportMetric(float64(w.n)/float64(b.N), "body-B/op")
		})
	}
}

// warmedRun builds spec's board, serves one job on it, and returns a
// func that serves the same job again on the recycled hardware.
func warmedRun(tb testing.TB, bc BoardConfig, spec *workload.Spec) func() {
	tb.Helper()
	cache := compile.NewStripCache(compile.DefaultCacheCapacity)
	set, err := spec.Build()
	if err != nil {
		tb.Fatal(err)
	}
	circs, err := compileSet(cache, bc, set)
	if err != nil {
		tb.Fatal(err)
	}
	var st *baseline.Stack
	job := func() {
		if st, err = buildStack(st, bc, set, circs); err != nil {
			tb.Fatal(err)
		}
		if _, err := run(st, set, false); err != nil {
			tb.Fatal(err)
		}
	}
	job()
	return job
}

// TestWarmAtLeastTwiceAsFastAsCold is the warm-board guarantee as a
// gate: on the default board, the median of five warm resets must be at
// least twice as fast as the median of five cold rebuilds with a fresh
// compile cache (place and route included). The ratio reads ~25x; 2x
// leaves room for any host.
func TestWarmAtLeastTwiceAsFastAsCold(t *testing.T) {
	bc := DefaultBoardConfig()
	spec := specFor(t, "multimedia")
	median := func(run func()) time.Duration {
		var d [5]time.Duration
		for i := range d {
			start := time.Now()
			run()
			d[i] = time.Since(start)
		}
		sort.Slice(d[:], func(i, j int) bool { return d[i] < d[j] })
		return d[len(d)/2]
	}
	cold := median(func() {
		if _, err := runJob(compile.NewStripCache(compile.DefaultCacheCapacity), bc, spec, false); err != nil {
			t.Fatal(err)
		}
	})
	warm := median(warmedRun(t, bc, spec))
	t.Logf("cold p50 %v, warm p50 %v (%.1fx)", cold, warm, float64(cold)/float64(warm))
	if cold < 2*warm {
		t.Errorf("warm reset p50 %v is not at least 2x faster than a cold rebuild's %v", warm, cold)
	}
}

// An empty circuit set must fail at Build time with the typed workload
// error for the set-pinning managers (overlay, merged index the circuit
// list at construction), not panic on `names[:1]`.
func TestEmptySetTypedError(t *testing.T) {
	for _, mgr := range []string{"overlay", "merged"} {
		bc := DefaultBoardConfig()
		bc.Manager = mgr
		if _, err := buildStack(nil, bc, &workload.Set{}, nil); !errors.Is(err, workload.ErrNoCircuits) {
			t.Errorf("%s: buildStack(empty set) = %v, want ErrNoCircuits", mgr, err)
		}
	}
}

// A pass-through output pin (gray8's top bit, hamming74enc's data bits,
// bintobcd8's lowest are wired straight from an input pin) must not
// survive its circuit's eviction: ClearRegion only disconnects output
// pins driven from inside the region, so the pin kept reading an input
// pin the next circuit re-purposed, and the post-run audit reported
// "output pin 15: reads pin 7 which is not configured as an input".
// Freeing a residency's pins now clears them. These seeds were not
// lint-clean before that.
func TestPassThroughPinClearedOnEvict(t *testing.T) {
	bc := DefaultBoardConfig() // dynamic
	cache := compile.NewStripCache(compile.DefaultCacheCapacity)
	for _, seed := range []uint64{9, 14, 30} {
		syn := workload.DefaultSynthetic()
		syn.Pool = []string{"gray8", "hamming74enc", "bintobcd8", "alu16"}
		syn.Seed = seed
		spec := &workload.Spec{Scenario: "synthetic", Synthetic: &syn}
		res, err := runJob(cache, bc, spec, false)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !res.LintClean {
			t.Errorf("seed %d: not lint-clean: %v", seed, res.LintDiags)
		}
	}
}
