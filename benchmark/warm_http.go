package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"time"

	"repro/internal/compile"
	"repro/internal/fabric"
	"repro/internal/serve"
	"repro/internal/workload"
)

const (
	warmClients     = 2   // closed-loop clients; the box has two cores
	warmScrapeEvery = 100 // each client scrapes /metrics after every 100th own job
	warmBoardsAt    = 50  // ... and reads /v1/boards at this offset in between
	warmReplayEvery = 20  // traced leg: every 20th own job gets a stage replay
	warmQueueDepth  = 16
)

// unthrottled is an admission limit no client of the benchmark reaches,
// while still running the token-bucket arithmetic a real limit runs
// (Rate <= 0 would short-circuit it).
var unthrottled = serve.TenantLimits{Rate: 1e9, Burst: 1e9}

// warmHTTP is the steady state a tenant sees: a closed loop of clients
// posting jobs to the daemon's handler and polling them to a terminal
// state, every circuit already compiled, every board warm.
type warmHTTP struct {
	o   runOpts
	chk *checker

	mix    *warmMix
	bodies [][]byte // one request body per job of the mix cycle
	srv    *serve.Server
	h      http.Handler

	replay *replayer // traced leg only

	// Filled by drive for layers.
	last warmCounts
}

// warmCounts is what the clients of one leg counted besides op latency.
type warmCounts struct {
	jobs, polls            int64
	statusBytes            []float64 // terminal status body, plain jobs
	statusBytesTraced      []float64 // terminal status body, trace:true jobs
	byBoard                [][]float64
	synthPlain, synthTrace []float64 // latency ms of synthetic jobs, by trace flag
}

func (c *warmCounts) merge(o *warmCounts) {
	c.jobs += o.jobs
	c.polls += o.polls
	c.statusBytes = append(c.statusBytes, o.statusBytes...)
	c.statusBytesTraced = append(c.statusBytesTraced, o.statusBytesTraced...)
	for b := range o.byBoard {
		c.byBoard[b] = append(c.byBoard[b], o.byBoard[b]...)
	}
	c.synthPlain = append(c.synthPlain, o.synthPlain...)
	c.synthTrace = append(c.synthTrace, o.synthTrace...)
}

func newWarmHTTP(o runOpts, chk *checker) driver { return &warmHTTP{o: o, chk: chk} }

func warmBoards() []serve.BoardConfig {
	var out []serve.BoardConfig
	for _, m := range serve.Managers {
		out = append(out, boardFor(m, warmQueueDepth))
	}
	return out
}

func (w *warmHTTP) setUp() error {
	w.tearDown()
	mix, err := newWarmMix(w.o.seed)
	if err != nil {
		return err
	}
	w.mix = mix
	boards := len(serve.Managers)
	w.bodies = make([][]byte, mixCycle)
	for i := range w.bodies {
		if w.bodies[i], err = submitBody(mix.at(i), i, i%boards); err != nil {
			return err
		}
	}
	srv, err := serve.New(serve.Config{Boards: warmBoards(), Tenant: unthrottled, Version: "benchmark"})
	if err != nil {
		return err
	}
	srv.Start()
	w.srv, w.h = srv, srv.Handler()
	// One cycle visits every (board, spec) pair (9 and 40 are coprime), so
	// it compiles every circuit and leaves every board warm.
	log := w.drive(time.Time{}, nil)
	if log.failed > 0 {
		return fmt.Errorf("%d of %d warm-up jobs failed: %v", log.failed, len(log.latMS), w.chk.failures())
	}
	return nil
}

func (w *warmHTTP) tearDown() {
	if w.srv != nil {
		w.srv.Drain()
		w.srv = nil
	}
	if w.replay != nil {
		w.replay.close()
		w.replay = nil
	}
}

// respWriter is the in-process http.ResponseWriter: no sockets, so what
// is timed is the handler, not the kernel's loopback.
type respWriter struct {
	hdr  http.Header
	code int
	buf  bytes.Buffer
}

func (r *respWriter) Header() http.Header         { return r.hdr }
func (r *respWriter) WriteHeader(code int)        { r.code = code }
func (r *respWriter) Write(b []byte) (int, error) { return r.buf.Write(b) }

// httpClient is one client goroutine's connection to the handler.
type httpClient struct {
	h http.Handler
	w respWriter
}

// do serves one request and returns the status and the body, which is
// only valid until the next call.
func (c *httpClient) do(method, path string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(method, path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	c.w.hdr = http.Header{}
	c.w.code = http.StatusOK
	c.w.buf.Reset()
	c.h.ServeHTTP(&c.w, req)
	return c.w.code, c.w.buf.Bytes(), nil
}

// statusWire is the part of serve.JobStatus a client needs.
type statusWire struct {
	State  string     `json:"state"`
	Error  string     `json:"error"`
	Result *jobResult `json:"result"`
}

func (w *warmHTTP) drive(deadline time.Time, tr *tracer) *opLog {
	if tr != nil && w.replay == nil {
		w.replay = newReplayer(w.mix)
	}
	d := &dealer{cycle: mixCycle, deadline: deadline, oneCycle: deadline.IsZero() || w.o.smoke}
	boards := len(serve.Managers)
	logs := make([]*opLog, warmClients)
	counts := make([]*warmCounts, warmClients)
	var wg sync.WaitGroup
	for c := 0; c < warmClients; c++ {
		logs[c] = &opLog{sloMS: w.o.sloMS, virt: virtAcc{window: mixCycle}}
		counts[c] = &warmCounts{byBoard: make([][]float64, boards)}
		wg.Add(1)
		go func(log *opLog, cnt *warmCounts) {
			defer wg.Done()
			cl := &httpClient{h: w.h}
			for own := 1; ; own++ {
				i, ok := d.draw()
				if !ok {
					return
				}
				req := w.oneJob(cl, i, log, cnt, tr)
				if tr != nil && own%warmReplayEvery == 0 {
					w.replay.job(tr, req, i, w.mix.at(i))
				}
				switch own % warmScrapeEvery {
				case 0:
					sp := tr.start("serve.metrics_scrape", 0, 0)
					_, _, _ = cl.do(http.MethodGet, "/metrics", nil)
					tr.end(sp)
				case warmBoardsAt:
					sp := tr.start("serve.boards", 0, 0)
					_, _, _ = cl.do(http.MethodGet, "/v1/boards", nil)
					tr.end(sp)
				}
			}
		}(logs[c], counts[c])
	}
	wg.Wait()
	out, cnt := logs[0], counts[0]
	for c := 1; c < warmClients; c++ {
		out.merge(logs[c])
		cnt.merge(counts[c])
	}
	w.last = *cnt
	return out
}

// oneJob submits job i and polls it to a terminal state, yielding the
// processor between polls, and returns the request id its spans carry.
func (w *warmHTTP) oneJob(cl *httpClient, i int, log *opLog, cnt *warmCounts, tr *tracer) int64 {
	board := i % len(serve.Managers)
	js := w.mix.at(i)
	req := tr.newID()
	root := tr.start("warm.request", 0, req)
	t0 := time.Now()

	fail := func(format string, args ...any) int64 {
		tr.end(root)
		log.add(time.Since(t0), false)
		w.chk.fail("warm_http job %d: "+format, append([]any{i}, args...)...)
		return req
	}

	sp := tr.start("serve.http_submit", root.id, req)
	code, body, err := cl.do(http.MethodPost, "/v1/jobs", w.bodies[i%mixCycle])
	tr.end(sp)
	if err != nil || code != http.StatusAccepted {
		return fail("submit: status %d, %s (err %v)", code, bytes.TrimSpace(body), err)
	}
	var sub serve.SubmitResponse
	if err := json.Unmarshal(body, &sub); err != nil {
		return fail("submit response: %v", err)
	}

	wait := tr.start("client.wait", root.id, req)
	var st statusWire
	path := "/v1/jobs/" + sub.ID
	size := 0
	for {
		ps := tr.start("serve.http_status", wait.id, req)
		code, body, err = cl.do(http.MethodGet, path, nil)
		tr.end(ps)
		cnt.polls++
		if err != nil || code != http.StatusOK {
			tr.end(wait)
			return fail("status: %d (err %v)", code, err)
		}
		st = statusWire{}
		if err := json.Unmarshal(body, &st); err != nil {
			tr.end(wait)
			return fail("status body: %v", err)
		}
		if st.State == serve.StateDone || st.State == serve.StateFailed {
			size = len(body)
			break
		}
		runtime.Gosched()
	}
	tr.end(wait)
	lat := time.Since(t0)
	tr.end(root)

	if st.State != serve.StateDone || st.Result == nil {
		log.add(lat, false)
		w.chk.fail("warm_http job %d: %s: %s", i, st.State, st.Error)
		return req
	}
	ok := w.chk.job(serve.Managers[board], js.key, st.Result.LintClean, st.Result.Makespan)
	log.add(lat, ok)
	log.virt.addJob(i, st.Result)

	ms := float64(lat) / float64(time.Millisecond)
	cnt.jobs++
	cnt.byBoard[board] = append(cnt.byBoard[board], ms)
	traced := i%mixTraceEvery == mixTraceEvery-1
	switch {
	case traced:
		cnt.statusBytesTraced = append(cnt.statusBytesTraced, float64(size))
		cnt.synthTrace = append(cnt.synthTrace, ms)
	default:
		cnt.statusBytes = append(cnt.statusBytes, float64(size))
		if i%5 == 4 {
			cnt.synthPlain = append(cnt.synthPlain, ms)
		}
	}
	return req
}

// replayer re-runs a job's stages one public call at a time, on objects
// the benchmark owns, so the trace holds a per-stage breakdown the
// uninstrumented daemon cannot give: decode, admit, build, one cache
// lookup per circuit, then the job on a warm board of the same manager.
type replayer struct {
	adm   *serve.Admission
	cache *compile.StripCache
	pool  *serve.Pool
}

func newReplayer(mix *warmMix) *replayer {
	r := &replayer{adm: serve.NewAdmission(unthrottled, nil), cache: compile.NewStripCache(compile.DefaultCacheCapacity)}
	pool, err := serve.NewPool(warmBoards(), serve.PoolOptions{Outcomes: r.adm, Cache: r.cache})
	if err != nil {
		panic(err) // the same configs built the server a moment ago
	}
	pool.Start()
	r.pool = pool
	for b := range serve.Managers {
		for _, js := range mix.distinct() {
			r.poolJob(b, js)
		}
	}
	return r
}

func (r *replayer) close() { r.pool.Drain() }

func (r *replayer) poolJob(board int, js *jobSpec) *serve.JobStatus {
	spec := js.spec
	j, err := r.pool.Submit(serve.SubmitArgs{Tenant: "replay", Spec: &spec, Board: &board})
	if err != nil {
		return nil
	}
	<-j.Done()
	st := j.Status()
	return &st
}

func (r *replayer) job(tr *tracer, req int64, i int, js *jobSpec) {
	root := tr.start("replay.request", 0, req)
	defer tr.end(root)

	sp := tr.start("workload.decode", root.id, req)
	spec, err := workload.DecodeJSON(js.json)
	tr.end(sp)
	if err != nil {
		return
	}
	sp = tr.start("serve.admit", root.id, req)
	r.adm.Allow(tenantName(i))
	tr.end(sp)
	sp = tr.start("workload.build", root.id, req)
	set, err := spec.Build()
	tr.end(sp)
	if err != nil {
		return
	}
	bc := boardFor(serve.Managers[i%len(serve.Managers)], warmQueueDepth)
	tm := fabric.DefaultTiming()
	for k, nl := range set.Circuits {
		sp = tr.start("compile.cache_lookup", root.id, req)
		_, _ = r.cache.CompileStrip(nl, bc.Rows, fabric.DefaultGeometry().TracksPerChannel,
			compile.Options{Seed: bc.Seed + uint64(k), Timing: &tm})
		tr.end(sp)
	}
	sp = tr.start("serve.pool_job", root.id, req)
	r.poolJob(i%len(serve.Managers), js)
	tr.end(sp)
}
