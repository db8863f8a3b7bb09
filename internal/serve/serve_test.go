package serve

// Server-level tests. They exercise the HTTP surface through the real
// handler (no network) and reach into the pool for the deterministic
// hooks: the worker gate holds queues full without sleeps, and the
// injected admission clock makes throttling decisions reproducible.

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/compile"
	"repro/internal/core"
	"repro/internal/hostos"
	"repro/internal/sim"
	"repro/internal/workload"
)

// newTestServer builds a Server over one default dynamic board.
func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	if cfg.Boards == nil {
		cfg.Boards = []BoardConfig{DefaultBoardConfig()}
	}
	if cfg.Version == "" {
		cfg.Version = "test"
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// do runs one request through the handler.
func do(t *testing.T, s *Server, method, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	var req *http.Request
	if body != "" {
		req = httptest.NewRequest(method, path, strings.NewReader(body))
	} else {
		req = httptest.NewRequest(method, path, nil)
	}
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	return rec
}

// errorOf decodes a non-2xx response's ErrorBody.
func errorOf(t *testing.T, rec *httptest.ResponseRecorder) string {
	t.Helper()
	var body ErrorBody
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatalf("error body %q: %v", rec.Body, err)
	}
	return body.Error
}

func submitBody(t *testing.T, tenant, scenario string) string {
	t.Helper()
	spec, err := workload.BuiltinSpec(scenario)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(SubmitRequest{Tenant: tenant, Workload: spec})
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// submitOK submits and returns the accepted job.
func submitOK(t *testing.T, s *Server, tenant, scenario string) *Job {
	t.Helper()
	rec := do(t, s, "POST", "/v1/jobs", submitBody(t, tenant, scenario))
	if rec.Code != http.StatusAccepted {
		t.Fatalf("submit: got %d, want 202 (body %s)", rec.Code, rec.Body)
	}
	var resp SubmitResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	j, err := s.pool.Job(resp.ID)
	if err != nil {
		t.Fatalf("job %s not registered: %v", resp.ID, err)
	}
	return j
}

func waitDone(t *testing.T, j *Job) {
	t.Helper()
	select {
	case <-j.done:
	case <-time.After(time.Minute):
		t.Fatalf("job %s did not finish", j.id)
	}
}

// directRun reproduces the same workload on a hand-built hostos stack,
// bypassing the serve layer entirely: fresh kernel, engine compiled
// without the strip cache, dynamic loader. Per-job results from the
// daemon must be byte-identical to this.
func directRun(t *testing.T, spec *workload.Spec, bc BoardConfig) *JobResult {
	t.Helper()
	set, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	opt := core.DefaultOptions()
	opt.Geometry.Cols, opt.Geometry.Rows = bc.Cols, bc.Rows
	opt.Seed = bc.Seed
	k := sim.New()
	e := core.NewEngine(opt, nil)
	for i, nl := range set.Circuits {
		tm := opt.Timing
		c, err := compile.CompileStrip(nl, opt.Geometry.Rows, opt.Geometry.TracksPerChannel,
			compile.Options{Seed: opt.Seed + uint64(i), Timing: &tm})
		if err != nil {
			t.Fatal(err)
		}
		e.Lib[nl.Name] = c
	}
	mgr := core.NewDynamicLoader(k, e, nil)
	osim := hostos.New(k, hostos.Config{
		Policy: hostos.RR, TimeSlice: bc.Slice,
		CtxSwitch: 50 * sim.Microsecond, Syscall: 10 * sim.Microsecond,
	}, mgr, nil)
	set.Spawn(osim)
	k.Run()
	if !osim.AllDone() {
		t.Fatal("direct run did not complete")
	}
	res := &JobResult{Makespan: osim.Makespan(), CtxSwitches: osim.CtxSwitches}
	for _, task := range osim.Tasks() {
		res.Tasks = append(res.Tasks, TaskResult{Name: task.Name, Turnaround: task.Turnaround(), TaskStats: task.TaskStats})
	}
	res.Metrics = append(res.Metrics, e.M.Snapshot(k.Now()))
	return res
}

// comparable strips a JobResult down to the fields a direct run also
// produces and renders them as JSON.
func comparableJSON(t *testing.T, r *JobResult) string {
	t.Helper()
	b, err := json.Marshal(struct {
		Tasks       []TaskResult           `json:"tasks"`
		Makespan    sim.Time               `json:"makespan_ns"`
		CtxSwitches int64                  `json:"ctx_switches"`
		Metrics     []core.MetricsSnapshot `json:"metrics"`
	}{r.Tasks, r.Makespan, r.CtxSwitches, r.Metrics})
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestJobResultMatchesDirectRun is the determinism contract: a job run
// through the daemon — queues, workers, shared compile cache and all —
// returns byte-identical task metrics and device counters to the same
// workload run by hand on a fresh hostos stack.
func TestJobResultMatchesDirectRun(t *testing.T) {
	for _, scenario := range []string{"multimedia", "telecom", "synthetic"} {
		t.Run(scenario, func(t *testing.T) {
			s := newTestServer(t, Config{})
			s.Start()
			defer s.Drain()

			// Two submissions of the same spec: exercises both the cold and
			// warm compile-cache paths.
			first := submitOK(t, s, "acme", scenario)
			waitDone(t, first)
			second := submitOK(t, s, "acme", scenario)
			waitDone(t, second)
			if first.Status().State != StateDone || second.Status().State != StateDone {
				t.Fatalf("jobs did not complete: %+v %+v", first.Status(), second.Status())
			}

			spec, err := workload.BuiltinSpec(scenario)
			if err != nil {
				t.Fatal(err)
			}
			want := comparableJSON(t, directRun(t, &spec, DefaultBoardConfig()))
			if got := comparableJSON(t, first.Status().Result); got != want {
				t.Errorf("first job diverged from direct run:\n got %s\nwant %s", got, want)
			}
			if got := comparableJSON(t, second.Status().Result); got != want {
				t.Errorf("second job (cached compile) diverged from direct run:\n got %s\nwant %s", got, want)
			}
			if !first.Status().Result.LintClean {
				t.Errorf("job left lint-dirty device state: %v", first.Status().Result.LintDiags)
			}
		})
	}
}

// TestBackpressure fills the only board's queue before the workers
// start: exactly QueueDepth submissions are accepted, and every one
// after that is a 429 with a Retry-After hint.
func TestBackpressure(t *testing.T) {
	bc := DefaultBoardConfig()
	bc.QueueDepth = 3
	s := newTestServer(t, Config{Boards: []BoardConfig{bc}, Tenant: TenantLimits{Rate: 0}})

	var accepted []*Job
	for i := 0; i < bc.QueueDepth; i++ {
		accepted = append(accepted, submitOK(t, s, "acme", "multimedia"))
	}
	for i := 0; i < 2; i++ {
		rec := do(t, s, "POST", "/v1/jobs", submitBody(t, "acme", "multimedia"))
		if rec.Code != http.StatusTooManyRequests {
			t.Fatalf("over-capacity submit %d: got %d, want 429", i, rec.Code)
		}
		if rec.Header().Get("Retry-After") == "" {
			t.Error("429 without Retry-After")
		}
	}
	snaps := s.adm.Snapshot()
	if len(snaps) != 1 || snaps[0].QueueFull != 2 {
		t.Errorf("queue-full accounting: %+v", snaps)
	}

	// Backpressure is not failure: once the workers start, everything
	// accepted completes.
	s.Start()
	for _, j := range accepted {
		waitDone(t, j)
		if st := j.Status(); st.State != StateDone {
			t.Errorf("job %s: state %s (%s)", st.ID, st.State, st.Error)
		}
	}
	s.Drain()
}

// TestTenantThrottle drives the token bucket with a hand-cranked clock.
func TestTenantThrottle(t *testing.T) {
	now := time.Unix(1000, 0)
	s := newTestServer(t, Config{
		Tenant: TenantLimits{Rate: 1, Burst: 2},
		Now:    func() time.Time { return now },
	})
	// Workers intentionally not started: admission decisions are
	// independent of execution.

	for i := 0; i < 2; i++ { // burst
		if rec := do(t, s, "POST", "/v1/jobs", submitBody(t, "a", "multimedia")); rec.Code != http.StatusAccepted {
			t.Fatalf("burst submit %d: got %d", i, rec.Code)
		}
	}
	rec := do(t, s, "POST", "/v1/jobs", submitBody(t, "a", "multimedia"))
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("over-burst submit: got %d, want 429", rec.Code)
	}
	if ra := rec.Header().Get("Retry-After"); ra != "1" {
		t.Errorf("Retry-After = %q, want \"1\" (empty bucket, 1 token/s)", ra)
	}
	// Tenants are isolated: b still has its full burst.
	if rec := do(t, s, "POST", "/v1/jobs", submitBody(t, "b", "multimedia")); rec.Code != http.StatusAccepted {
		t.Fatalf("tenant b: got %d, want 202", rec.Code)
	}
	// One second later a regrows exactly one token.
	now = now.Add(time.Second)
	if rec := do(t, s, "POST", "/v1/jobs", submitBody(t, "a", "multimedia")); rec.Code != http.StatusAccepted {
		t.Fatalf("post-refill submit: got %d, want 202", rec.Code)
	}
	if rec := do(t, s, "POST", "/v1/jobs", submitBody(t, "a", "multimedia")); rec.Code != http.StatusTooManyRequests {
		t.Fatalf("second post-refill submit: got %d, want 429", rec.Code)
	}
}

// TestAdmissionBounded: ten thousand distinct tenants, from four
// goroutines, leave the counter table at its cap plus the shared row and
// the bucket table small, with every admission counted; and one tenant
// interleaved with thousands of others is admitted and throttled, with
// the same Retry-After, exactly as by a bucket that is never dropped.
func TestAdmissionBounded(t *testing.T) {
	limits := TenantLimits{Rate: 2, Burst: 3}
	var clk atomic.Int64 // ns; every reading advances it 10 ms
	a := NewAdmission(limits, func() time.Time { return time.Unix(0, clk.Add(int64(10*time.Millisecond))) })
	const tenants, workers = 10_000, 4
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < tenants; i += workers {
				name := fmt.Sprintf("t%05d", i)
				if ok, _ := a.Allow(name); !ok {
					t.Errorf("%s throttled on its first submission", name)
				}
				a.NoteCompleted(name)
			}
		}(w)
	}
	wg.Wait()
	rows := a.Snapshot()
	var admitted, completed int64
	for _, r := range rows {
		admitted += r.Admitted
		completed += r.Completed
	}
	if len(rows) != maxTenantRows+1 || rows[0].Tenant != otherTenants || admitted != tenants || completed != tenants {
		t.Errorf("%d counter rows (first %q), %d admitted, %d completed; want %d rows with the shared one first, %d each",
			len(rows), rows[0].Tenant, admitted, completed, maxTenantRows+1, tenants)
	}
	if n := len(a.buckets); n > 2*minBucketSweep {
		t.Errorf("%d buckets held after %d tenants, want at most %d", n, tenants, 2*minBucketSweep)
	}

	// One tenant against the never-dropped bucket, on a hand-set clock.
	now := time.Unix(1000, 0)
	a = NewAdmission(limits, func() time.Time { return now })
	ref := struct {
		tokens float64
		last   time.Time
	}{limits.Burst, now}
	var admits, throttles, dropped int
	for i := 0; i < tenants; i++ {
		// Steps of 0-12 ms: "hot" asks faster than it refills, except in
		// the last 400 submissions of every 1 000, where it pauses long
		// enough to refill and be swept.
		now = now.Add(time.Duration(i*7919%13) * time.Millisecond)
		if i%3 != 0 || i%1000 >= 600 {
			a.Allow(fmt.Sprintf("t%05d", i))
			continue
		}
		if a.buckets["hot"] == nil && i > 0 {
			dropped++
		}
		ok, retry := a.Allow("hot")
		ref.tokens = math.Min(limits.Burst, ref.tokens+limits.Rate*now.Sub(ref.last).Seconds())
		ref.last = now
		wantOK, wantRetry := ref.tokens >= 1, time.Duration(0)
		if wantOK {
			ref.tokens--
			admits++
		} else {
			wantRetry = time.Duration((1 - ref.tokens) / limits.Rate * float64(time.Second))
			throttles++
		}
		if ok != wantOK || retry != wantRetry {
			t.Fatalf("submission %d: (%v, %v), want (%v, %v)", i, ok, retry, wantOK, wantRetry)
		}
	}
	t.Logf("hot: %d admits, %d throttles, %d re-created buckets", admits, throttles, dropped)
	if admits == 0 || throttles == 0 || dropped == 0 {
		t.Errorf("%d admits, %d throttles, %d re-created buckets: the sequence does not exercise every path", admits, throttles, dropped)
	}
	if n := testing.AllocsPerRun(100, func() { a.Allow("hot") }); n != 0 {
		t.Errorf("Allow for a known tenant allocates %v objects", n)
	}
}

// TestDrain checks the shutdown contract: drain finishes every accepted
// job, then the API answers 503 and /healthz reports draining.
func TestDrain(t *testing.T) {
	bc := DefaultBoardConfig()
	s := newTestServer(t, Config{Boards: []BoardConfig{bc}, Tenant: TenantLimits{Rate: 0}})
	s.pool.gate = make(chan struct{}, 8)
	s.Start()

	jobs := []*Job{
		submitOK(t, s, "acme", "multimedia"),
		submitOK(t, s, "acme", "multimedia"),
		submitOK(t, s, "acme", "multimedia"),
	}
	if rec := do(t, s, "GET", "/healthz", ""); !strings.Contains(rec.Body.String(), `"ok"`) {
		t.Errorf("healthz before drain: %s", rec.Body)
	}

	drained := make(chan struct{})
	go func() { s.Drain(); close(drained) }()
	for range jobs {
		s.pool.gate <- struct{}{}
	}
	select {
	case <-drained:
	case <-time.After(time.Minute):
		t.Fatal("drain did not complete")
	}
	for _, j := range jobs {
		if st := j.Status(); st.State != StateDone {
			t.Errorf("job %s after drain: state %s (%s)", st.ID, st.State, st.Error)
		}
	}
	if rec := do(t, s, "POST", "/v1/jobs", submitBody(t, "acme", "multimedia")); rec.Code != http.StatusServiceUnavailable {
		t.Errorf("post-drain submit: got %d, want 503", rec.Code)
	}
	if rec := do(t, s, "GET", "/healthz", ""); !strings.Contains(rec.Body.String(), `"draining"`) {
		t.Errorf("healthz after drain: %s", rec.Body)
	}
	// Drain is idempotent.
	s.Drain()
}

// TestCancelQueued cancels a job while it waits in the queue; the
// worker must fail it without running it.
func TestCancelQueued(t *testing.T) {
	s := newTestServer(t, Config{Tenant: TenantLimits{Rate: 0}})
	s.pool.gate = make(chan struct{}, 8)
	s.Start()
	defer func() {
		go s.Drain()
		s.pool.gate <- struct{}{}
		s.pool.gate <- struct{}{}
	}()

	first := submitOK(t, s, "acme", "multimedia")
	second := submitOK(t, s, "acme", "multimedia")
	if rec := do(t, s, "DELETE", "/v1/jobs/"+second.id, ""); rec.Code != http.StatusOK {
		t.Fatalf("cancel: got %d", rec.Code)
	}
	s.pool.gate <- struct{}{}
	s.pool.gate <- struct{}{}
	waitDone(t, first)
	waitDone(t, second)
	if st := first.Status(); st.State != StateDone {
		t.Errorf("uncancelled job: state %s (%s)", st.State, st.Error)
	}
	st := second.Status()
	if st.State != StateFailed || !strings.Contains(st.Error, "context canceled") {
		t.Errorf("cancelled job: state %s error %q, want failed/context canceled", st.State, st.Error)
	}
}

// TestBadRequests covers the 4xx surface.
func TestBadRequests(t *testing.T) {
	s := newTestServer(t, Config{})
	cases := []struct {
		name, body string
		want       int
	}{
		{"empty tenant", `{"workload":{"scenario":"multimedia"}}`, http.StatusBadRequest},
		{"unknown scenario", `{"tenant":"a","workload":{"scenario":"nope"}}`, http.StatusBadRequest},
		{"unknown field", `{"tenant":"a","workload":{"scenario":"multimedia"},"bogus":1}`, http.StatusBadRequest},
		{"mismatched block", `{"tenant":"a","workload":{"scenario":"multimedia","telecom":{}}}`, http.StatusBadRequest},
		{"bad board pin", `{"tenant":"a","workload":{"scenario":"multimedia"},"board":7}`, http.StatusBadRequest},
		{"oversized body", `{"tenant":"` + strings.Repeat("a", maxSubmitBytes) + `","workload":{"scenario":"multimedia"}}`, http.StatusRequestEntityTooLarge},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			rec := do(t, s, "POST", "/v1/jobs", c.body)
			if rec.Code != c.want {
				t.Errorf("got %d, want %d (body %.200s)", rec.Code, c.want, rec.Body)
			}
			var body ErrorBody
			if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil || body.Error == "" {
				t.Errorf("no JSON error body: %v (body %.200s)", err, rec.Body)
			}
		})
	}
	submitOK(t, s, "a", "multimedia") // a refused request leaves the server serving
	if rec := do(t, s, "GET", "/v1/jobs/j999999", ""); rec.Code != http.StatusNotFound {
		t.Errorf("unknown job: got %d, want 404", rec.Code)
	}
}

// TestSubmitDecodeReuse runs valid and refused bodies through one
// handler, so each decode after the first takes a strict decoder a
// decode before gave back: each status and body must be what a fresh
// server returns for that body alone, a job's id apart.
func TestSubmitDecodeReuse(t *testing.T) {
	valid := submitBody(t, "a", "telecom")
	bodies := []string{
		valid,
		valid + "x",
		``,
		`{"tenant":"a","workload":{"scenario":"multimedia"`,
		`{"tenant":"` + strings.Repeat("a", maxSubmitBytes) + `","workload":{"scenario":"multimedia"}}`,
		`{"tenant":"a","workload":{"scenario":"multimedia","telecom":{"sesions":4}}}`,
		valid + "\n",
		valid,
	}
	// response is rec's status and body, an accepted job's id cleared.
	response := func(rec *httptest.ResponseRecorder) string {
		var sub SubmitResponse
		if rec.Code == http.StatusAccepted && json.Unmarshal(rec.Body.Bytes(), &sub) == nil && sub.ID != "" {
			sub.ID = ""
			b, _ := json.Marshal(sub)
			return fmt.Sprintf("%d %s", rec.Code, b)
		}
		return fmt.Sprintf("%d %s", rec.Code, rec.Body)
	}
	shared := newTestServer(t, Config{})
	for i, body := range bodies {
		got := response(do(t, shared, "POST", "/v1/jobs", body))
		want := response(do(t, newTestServer(t, Config{}), "POST", "/v1/jobs", body))
		if got != want {
			t.Errorf("body %d (%.60q): got %.200s, want %.200s", i, body, got, want)
		}
	}
}

// TestTenantNameBounded: a tenant name is bounded at the door — an
// oversized or control-character name is a 400 before admission spends a
// token or either tenant table learns the name.
func TestTenantNameBounded(t *testing.T) {
	s := newTestServer(t, Config{})
	for _, c := range []struct {
		name, tenant string
		want         int
	}{
		{"200 KB", strings.Repeat("a", 200<<10), http.StatusBadRequest},
		{"129 bytes", strings.Repeat("a", maxTenantBytes+1), http.StatusBadRequest},
		{"newline", "a\nb", http.StatusBadRequest},
		{"128 bytes", strings.Repeat("a", maxTenantBytes), http.StatusAccepted},
	} {
		rec := do(t, s, "POST", "/v1/jobs", submitBody(t, c.tenant, "multimedia"))
		if rec.Code != c.want {
			t.Fatalf("%s: got %d, want %d (body %.200s)", c.name, rec.Code, c.want, rec.Body)
		}
		if c.want != http.StatusBadRequest {
			continue
		}
		if !strings.Contains(errorOf(t, rec), "tenant name") {
			t.Errorf("%s: error %.200q does not name the tenant name", c.name, rec.Body)
		}
		if tenants := s.adm.Snapshot(); len(tenants) != 0 {
			t.Fatalf("%s: the refusal reached admission: %d tenants", c.name, len(tenants))
		}
	}
	if tenants := s.adm.Snapshot(); len(tenants) != 1 || tenants[0].Admitted != 1 {
		t.Errorf("admission after the accepted name: %+v", tenants)
	}
}

// TestBoardPin runs every manager as a pinned single-job board, proving
// the whole manager matrix works behind the service.
func TestBoardPin(t *testing.T) {
	var cfgs []BoardConfig
	for _, m := range Managers {
		bc := DefaultBoardConfig()
		bc.Manager = m
		cfgs = append(cfgs, bc)
	}
	s := newTestServer(t, Config{Boards: cfgs, Tenant: TenantLimits{Rate: 0}})
	s.Start()
	defer s.Drain()

	spec, err := workload.BuiltinSpec("multimedia")
	if err != nil {
		t.Fatal(err)
	}
	for i, m := range Managers {
		body, err := json.Marshal(SubmitRequest{Tenant: "acme", Workload: spec, Board: &i})
		if err != nil {
			t.Fatal(err)
		}
		rec := do(t, s, "POST", "/v1/jobs", string(body))
		if rec.Code != http.StatusAccepted {
			t.Fatalf("manager %s: submit got %d (%s)", m, rec.Code, rec.Body)
		}
		var resp SubmitResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		if resp.Board != i {
			t.Errorf("manager %s: ran on board %d, pinned to %d", m, resp.Board, i)
		}
		j, _ := s.pool.Job(resp.ID)
		waitDone(t, j)
		if st := j.Status(); st.State != StateDone {
			t.Errorf("manager %s: state %s (%s)", m, st.State, st.Error)
		}
	}
	rec := do(t, s, "GET", "/v1/boards", "")
	var infos []BoardInfo
	if err := json.Unmarshal(rec.Body.Bytes(), &infos); err != nil {
		t.Fatal(err)
	}
	if len(infos) != len(Managers) {
		t.Fatalf("boards: got %d, want %d", len(infos), len(Managers))
	}
	for i, bi := range infos {
		if bi.JobsDone != 1 {
			t.Errorf("board %d (%s): %d jobs done, want 1", i, bi.Manager, bi.JobsDone)
		}
	}
}

// TestJobTimeoutWhileQueued: a deadline that expires in the queue fails
// the job without running it.
func TestJobTimeoutWhileQueued(t *testing.T) {
	s := newTestServer(t, Config{Tenant: TenantLimits{Rate: 0}})
	s.pool.gate = make(chan struct{}, 8)
	s.Start()

	spec, err := workload.BuiltinSpec("multimedia")
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(SubmitRequest{Tenant: "acme", Workload: spec, TimeoutMS: 1})
	if err != nil {
		t.Fatal(err)
	}
	rec := do(t, s, "POST", "/v1/jobs", string(body))
	if rec.Code != http.StatusAccepted {
		t.Fatalf("submit: got %d", rec.Code)
	}
	var resp SubmitResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	j, _ := s.pool.Job(resp.ID)
	<-j.ctx.Done() // deadline fires while the gated worker holds the job queued
	s.pool.gate <- struct{}{}
	waitDone(t, j)
	if st := j.Status(); st.State != StateFailed || !strings.Contains(st.Error, "deadline") {
		t.Errorf("timed-out job: state %s error %q", st.State, st.Error)
	}
	go s.Drain()
	s.pool.gate <- struct{}{}
}

// TestFailedJobCountedBeforeDone: by the time a failed job reads as
// finished, its board and its tenant have already counted it — a client
// that polls a terminal status and then reads /v1/boards or /metrics
// finds the job there.
func TestFailedJobCountedBeforeDone(t *testing.T) {
	s := newTestServer(t, Config{Tenant: TenantLimits{Rate: 0}})
	s.pool.gate = make(chan struct{}, 1)
	s.Start()
	defer s.Drain()

	j := submitOK(t, s, "acme", "multimedia")
	j.Cancel() // while the gated worker holds it queued
	s.pool.gate <- struct{}{}
	<-j.Done()
	if bi := s.pool.BoardInfos()[0]; bi.JobsFailed != 1 || bi.State != "idle" {
		t.Errorf("board after the job's Done: %+v, want 1 failed job and an idle board", bi)
	}
	if tenants := s.adm.Snapshot(); len(tenants) != 1 || tenants[0].Failed != 1 {
		t.Errorf("tenant counters after the job's Done: %+v, want 1 failed", tenants)
	}
}

// TestSubmitSequenceIDs pins the job id format the load generator and
// the docs rely on.
func TestSubmitSequenceIDs(t *testing.T) {
	s := newTestServer(t, Config{Tenant: TenantLimits{Rate: 0}})
	j1 := submitOK(t, s, "a", "multimedia")
	j2 := submitOK(t, s, "a", "multimedia")
	if j1.id != "j000001" || j2.id != "j000002" {
		t.Errorf("ids %q %q, want j000001 j000002", j1.id, j2.id)
	}
	if fmt.Sprintf("j%06d", 3) != "j000003" {
		t.Error("id format drifted")
	}
}

// TestJobPanicDoesNotKillDaemon: a job that panics on the board's worker
// must become a failed job, and the worker keep serving. No body the API
// admits panics any more (Spec.Validate range-checks what the generators
// divide and index by), so the job here is a caller's bug: a nil spec,
// handed straight to the pool.
func TestJobPanicDoesNotKillDaemon(t *testing.T) {
	s := newTestServer(t, Config{Tenant: TenantLimits{Rate: 0}})
	s.Start()
	defer s.Drain()

	j, err := s.pool.Submit(SubmitArgs{Tenant: "acme"})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	waitDone(t, j)
	if st := j.Status(); st.State != StateFailed || !strings.Contains(st.Error, "panicked") {
		t.Errorf("bad job: state %s error %q, want failed/panicked", st.State, st.Error)
	}

	// The board survives and runs the next job normally.
	good := submitOK(t, s, "acme", "multimedia")
	waitDone(t, good)
	if st := good.Status(); st.State != StateDone {
		t.Errorf("follow-up job: state %s (%s)", st.State, st.Error)
	}
}

// TestPartialParamBlock: omitted block fields take scenario defaults
// end to end through the API.
func TestPartialParamBlock(t *testing.T) {
	s := newTestServer(t, Config{Tenant: TenantLimits{Rate: 0}})
	s.Start()
	defer s.Drain()

	body := `{"tenant":"acme","workload":{"scenario":"telecom","telecom":{"sessions":4}}}`
	rec := do(t, s, "POST", "/v1/jobs", body)
	if rec.Code != http.StatusAccepted {
		t.Fatalf("submit: got %d (%s)", rec.Code, rec.Body)
	}
	var resp SubmitResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	j, _ := s.pool.Job(resp.ID)
	waitDone(t, j)
	st := j.Status()
	if st.State != StateDone {
		t.Fatalf("partial-block job: state %s (%s)", st.State, st.Error)
	}
	if n := len(st.Result.Tasks); n != 4 {
		t.Errorf("got %d tasks, want 4 sessions", n)
	}
}

// TestOutOfRangeParamsRefused: a parameter a generator would divide by,
// loop to or allocate for is refused with 400 before admission spends a
// token — and so before it can reach a board, whose warm stack a
// panicking job used to cost.
func TestOutOfRangeParamsRefused(t *testing.T) {
	s := newTestServer(t, Config{Tenant: TenantLimits{Rate: 0.001, Burst: 2}})
	s.Start()
	defer s.Drain()

	waitDone(t, submitOK(t, s, "acme", "multimedia"))
	before := s.pool.BoardInfos()[0]
	for _, block := range []string{
		`"scenario":"diagnosis","diagnosis":{"diag_every":0}`,
		`"scenario":"multimedia","multimedia":{"streams":-1}`,
		`"scenario":"telecom","telecom":{"packets_per":0}`,
		`"scenario":"multimedia","multimedia":{"streams":2000000000}`,
	} {
		rec := do(t, s, "POST", "/v1/jobs", `{"tenant":"acme","workload":{`+block+`}}`)
		if rec.Code != http.StatusBadRequest || !strings.Contains(errorOf(t, rec), "parameter out of range") {
			t.Errorf("%s: got %d %s, want 400 naming the parameter", block, rec.Code, rec.Body)
		}
	}
	// The second token of the burst is still there, and the board still
	// warm.
	good := submitOK(t, s, "acme", "multimedia")
	waitDone(t, good)
	after := s.pool.BoardInfos()[0]
	if good.Status().State != StateDone || after.ColdResets != before.ColdResets || after.WarmResets != before.WarmResets+1 {
		t.Errorf("after the refusals: job %s, resets %d cold / %d warm, were %d / %d",
			good.Status().State, after.ColdResets, after.WarmResets, before.ColdResets, before.WarmResets)
	}
}

// A multi board with no sub-board is refused when the pool is built (the
// config differs from a default one in nothing else), not run as a
// one-board multi.
func TestMultiWithoutSubBoardsRefused(t *testing.T) {
	for _, n := range []int{0, -1} {
		bc := DefaultBoardConfig()
		bc.Manager, bc.SubBoards = "multi", n
		if _, err := NewPool([]BoardConfig{bc}, PoolOptions{}); err == nil {
			t.Errorf("multi with %d sub-boards: NewPool accepted it", n)
		}
	}
	bc := DefaultBoardConfig()
	bc.SubBoards = 0 // ignored by every manager but multi
	if err := bc.Validate(); err != nil {
		t.Errorf("dynamic with 0 sub-boards: %v", err)
	}
}
