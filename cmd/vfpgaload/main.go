// Command vfpgaload drives a running vfpgad with synthetic client
// load and reports the status-code and latency distribution — the
// smoke-test companion to vfpgad.
//
// Usage:
//
//	vfpgaload -target http://127.0.0.1:8080 -requests 200 -concurrency 8
//	vfpgaload -target http://127.0.0.1:8080 -workload telecom -tenants 4
//	vfpgaload -target http://127.0.0.1:8080 -requests 50 -check-lint
//
// Closed-loop: each of -concurrency workers submits, polls the job to
// completion, then submits again until -requests jobs are accounted
// for. 429s are retried after the server's Retry-After hint — on the
// submit and the poll path alike — and do not count against -requests;
// transport errors (a daemon still binding its socket refuses
// connections briefly) are retried a bounded number of times. Exits
// nonzero on any 5xx, any persistent transport error, any failed job,
// or (with -check-lint) any lint-dirty result.
//
// The target is one endpoint, a single vfpgad or a fleet front-end
// (vfpgad -nodes N), which routes every job across its nodes itself and
// keeps one admission budget for the whole fleet.
//
// Against a daemon running a fault campaign (vfpgad -faults),
// -allow-faults accepts job failures that carry a typed fault kind —
// they are counted separately, not as failures — and -expect-quarantine
// requires at least one board to end up quarantined. Against a fleet
// (vfpgad -nodes > 1), -expect-node-quarantine requires a whole node to
// have dropped out of the healthy rotation (via GET /v1/fleet).
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/fleet"
	"repro/internal/serve"
	istats "repro/internal/stats"
	"repro/internal/version"
	"repro/internal/workload"
)

// sleep is time.Sleep, injectable so tests can run the throttle paths
// without real waits.
var sleep = time.Sleep

// tenantAcct separates what the server did for a tenant from what it
// made the tenant wait for: service latency is accepted-submit to
// terminal status minus the Retry-After windows slept through, so a
// throttled tenant's 429 budget never pollutes its latency quantiles.
type tenantAcct struct {
	completed int
	svc       *istats.LatencyRecorder
	throttled int
	waited    time.Duration
}

type stats struct {
	mu        sync.Mutex
	codes     map[int]int
	submitted int
	completed int
	failed    int
	faulted   int // failed with a typed injected-fault reason
	lintDirty int
	transport int
	retries   int
	tenants   map[string]*tenantAcct
}

// wireTally is what one awaitJob call adds to the shared counters; it
// tallies without the lock and merges once on return.
type wireTally struct {
	codes                                 []int
	submitted, failed, transport, retries int
}

func (s *stats) merge(t *wireTally) {
	s.mu.Lock()
	for _, c := range t.codes {
		s.codes[c]++
	}
	s.submitted += t.submitted
	s.failed += t.failed
	s.transport += t.transport
	s.retries += t.retries
	s.mu.Unlock()
}

// tenantLocked returns the tenant's account; callers hold s.mu.
func (s *stats) tenantLocked(tenant string) *tenantAcct {
	if s.tenants == nil {
		s.tenants = map[string]*tenantAcct{}
	}
	a := s.tenants[tenant]
	if a == nil {
		a = &tenantAcct{svc: istats.NewLatencyRecorder()}
		s.tenants[tenant] = a
	}
	return a
}

// noteServiceLocked records one completed job's service latency
// (throttle waits already excluded; the recorder clamps negatives to
// zero). Callers hold s.mu.
func (s *stats) noteServiceLocked(tenant string, d time.Duration) {
	a := s.tenantLocked(tenant)
	a.completed++
	a.svc.Observe(int64(d))
}

// noteThrottleWait records one 429-induced wait charged to the tenant.
func (s *stats) noteThrottleWait(tenant string, d time.Duration) {
	s.mu.Lock()
	a := s.tenantLocked(tenant)
	a.throttled++
	a.waited += d
	s.mu.Unlock()
}

func main() {
	targetFlag := flag.String("target", "http://127.0.0.1:8080", "vfpgad base URL")
	requests := flag.Int("requests", 100, "total jobs to run to completion")
	concurrency := flag.Int("concurrency", 4, "concurrent closed-loop workers")
	tenants := flag.Int("tenants", 2, "number of distinct tenants to submit as")
	scenario := flag.String("workload", "synthetic", "workload scenario to submit")
	checkLint := flag.Bool("check-lint", false, "fail if any job result is not lint-clean")
	allowFaults := flag.Bool("allow-faults", false, "count job failures with a typed fault kind separately, not as failures")
	expectQuarantine := flag.Bool("expect-quarantine", false, "fail unless at least one board ends up quarantined")
	expectNodeQuarantine := flag.Bool("expect-node-quarantine", false, "fail unless at least one fleet node ends up unhealthy (needs a fleet target)")
	expectWarm := flag.Bool("expect-warm", false, "fail unless every board ran at least one job on its recycled hardware and built on new hardware at most once")
	timeout := flag.Duration("timeout", 2*time.Minute, "overall deadline")
	showVersion := flag.Bool("version", false, "print the build version and exit")

	// Trace modes: -record writes a generated trace and exits; -trace
	// replays a recorded trace open-loop and reports model statistics.
	record := flag.String("record", "", "write a generated workload trace to this file and exit (no daemon needed)")
	tracePath := flag.String("trace", "", "replay the recorded trace at this path open-loop (overrides closed-loop mode)")
	speedup := flag.Float64("speedup", 1, "offered-load multiplier for the replay model: arrival times divide by this")
	pace := flag.Float64("pace", 0, "wall-clock pacing multiplier for -trace submissions; 0 submits without pacing (results are virtual-time either way)")
	servers := flag.Int("servers", 0, "server count for the replay model; 0 queries the target's /v1/boards")
	sloFlag := flag.String("slo", "", "latency SLO like p99<50ms; with -trace, runs the saturation search and fails when the replay violates it")
	csvOut := flag.String("csv-out", "", "write per-request replay results as CSV to this file")
	jsonOut := flag.String("json-out", "", "write the replay summary (and curve/saturation with -slo) as JSON to this file")
	admitRate := flag.Float64("admit-rate", 0, "virtual per-tenant admission tokens per second in the replay model; 0 disables")
	admitBurst := flag.Float64("admit-burst", 0, "virtual per-tenant admission burst in the replay model")
	genJobs := flag.Int("gen-jobs", 60, "jobs to generate with -record")
	genArrival := flag.String("gen-arrival", "poisson", "arrival process for -record: poisson or onoff")
	genMean := flag.Duration("gen-mean", 100*time.Millisecond, "mean inter-arrival time for -record")
	genOn := flag.Duration("gen-on", time.Second, "mean on-phase length for -record with onoff arrivals")
	genOff := flag.Duration("gen-off", time.Second, "mean off-phase length for -record with onoff arrivals")
	genSeed := flag.Uint64("gen-seed", 1234, "generator seed for -record")
	flag.Parse()
	if *showVersion {
		fmt.Println("vfpgaload", version.String())
		return
	}
	// A run with no request, worker or tenant would pass vacuously or
	// divide by zero: refuse it as a usage error.
	for _, f := range []struct {
		name string
		v    int
	}{{"requests", *requests}, {"concurrency", *concurrency}, {"tenants", *tenants}} {
		if f.v < 1 {
			fmt.Fprintf(os.Stderr, "vfpgaload: -%s %d: want at least 1\n", f.name, f.v)
			os.Exit(2)
		}
	}

	if *record != "" {
		os.Exit(runRecord(*record, genConfig{
			jobs: *genJobs, arrival: *genArrival, mean: *genMean,
			on: *genOn, off: *genOff, seed: *genSeed, tenants: *tenants,
		}))
	}

	target := strings.TrimRight(*targetFlag, "/")

	if *tracePath != "" {
		os.Exit(runTrace(target, *tracePath, traceOpts{
			speedup: *speedup, pace: *pace, servers: *servers,
			slo: *sloFlag, csvOut: *csvOut, jsonOut: *jsonOut,
			admitRate: *admitRate, admitBurst: *admitBurst,
			deadline:  time.Now().Add(*timeout),
			checkLint: *checkLint,
		}))
	}

	spec, err := workload.BuiltinSpec(*scenario)
	if err != nil {
		fmt.Fprintf(os.Stderr, "vfpgaload: %v\n", err)
		os.Exit(1)
	}

	st := &stats{codes: map[int]int{}}
	deadline := time.Now().Add(*timeout)
	var next int64
	var mu sync.Mutex
	take := func() (int, bool) {
		mu.Lock()
		defer mu.Unlock()
		if next >= int64(*requests) {
			return 0, false
		}
		next++
		return int(next - 1), true
	}

	var wg sync.WaitGroup
	for w := 0; w < *concurrency; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			client := &http.Client{Timeout: 30 * time.Second}
			for {
				n, ok := take()
				if !ok || time.Now().After(deadline) {
					return
				}
				tenant := "tenant-" + strconv.Itoa(n%*tenants)
				runOne(client, target, tenant, &spec, *checkLint, *allowFaults, deadline, st)
			}
		}(w)
	}
	wg.Wait()

	quarantined, minWarm, maxCold := -1, int64(-1), int64(-1)
	if *expectQuarantine || *expectWarm {
		if boards, err := fetchBoards(target, deadline, st); err == nil {
			quarantined = 0
			for i, bi := range boards {
				if bi.Quarantined {
					quarantined++
				}
				if i == 0 || bi.WarmResets < minWarm {
					minWarm = bi.WarmResets
				}
				maxCold = max(maxCold, bi.ColdResets)
			}
		}
	}
	nodesOut := -1
	if *expectNodeQuarantine {
		nodesOut = countUnhealthyNodes(target, deadline, st)
	}

	st.mu.Lock()
	defer st.mu.Unlock()
	fmt.Printf("vfpgaload: %d submitted, %d completed, %d failed, %d faulted, %d transport errors, %d retries after 429\n",
		st.submitted, st.completed, st.failed, st.faulted, st.transport, st.retries)
	codes := make([]int, 0, len(st.codes))
	for c := range st.codes {
		codes = append(codes, c)
	}
	sort.Ints(codes)
	for _, c := range codes {
		fmt.Printf("  HTTP %d: %d\n", c, st.codes[c])
	}
	names := make([]string, 0, len(st.tenants))
	for name := range st.tenants {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		a := st.tenants[name]
		fmt.Printf("  tenant %s: %d completed, service p50=%s p95=%s, %d throttle waits totaling %s\n",
			name, a.completed,
			time.Duration(a.svc.Quantile(0.5)).Round(time.Millisecond),
			time.Duration(a.svc.Quantile(0.95)).Round(time.Millisecond),
			a.throttled, a.waited.Round(time.Millisecond))
	}
	bad := st.failed > 0 || st.transport > 0
	for _, c := range codes {
		if c >= 500 {
			bad = true
		}
	}
	if *checkLint && st.lintDirty > 0 {
		fmt.Printf("  lint-dirty results: %d\n", st.lintDirty)
		bad = true
	}
	if *expectQuarantine {
		fmt.Printf("  quarantined boards: %d\n", quarantined)
		if quarantined < 1 {
			bad = true
		}
	}
	if *expectNodeQuarantine {
		fmt.Printf("  unhealthy nodes: %d\n", nodesOut)
		if nodesOut < 1 {
			bad = true
		}
	}
	if *expectWarm {
		fmt.Printf("  min warm resets per board: %d\n", minWarm)
		fmt.Printf("  max cold resets per board: %d\n", maxCold)
		if minWarm < 1 || maxCold > 1 {
			bad = true
		}
	}
	if bad {
		os.Exit(1)
	}
}

// transportRetries bounds how often a refused or dropped connection is
// retried before it counts as a transport error.
const transportRetries = 5

// doReq issues one request, retrying transport-level failures with a
// linear backoff. HTTP-level errors are the caller's business.
func doReq(client *http.Client, method, url string, body []byte, deadline time.Time) (*http.Response, error) {
	var lastErr error
	for attempt := 0; attempt <= transportRetries; attempt++ {
		if attempt > 0 {
			time.Sleep(time.Duration(attempt) * 100 * time.Millisecond)
		}
		if time.Now().After(deadline) {
			break
		}
		var resp *http.Response
		var err error
		if method == http.MethodPost {
			resp, err = client.Post(url, "application/json", bytes.NewReader(body))
		} else {
			resp, err = client.Get(url)
		}
		if err == nil {
			return resp, nil
		}
		lastErr = err
	}
	if lastErr == nil {
		lastErr = fmt.Errorf("deadline exceeded before %s %s", method, url)
	}
	return nil, lastErr
}

// retryAfterWait drains a 429 response and returns how long the server
// asked us to back off.
func retryAfterWait(resp *http.Response) time.Duration {
	wait := time.Second
	if ra, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && ra > 0 {
		wait = time.Duration(ra) * time.Second
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return wait
}

// getJSON decodes the target's GET path into v. A transport failure
// counts in st.
func getJSON(url, path string, deadline time.Time, st *stats, v any) error {
	client := &http.Client{Timeout: 30 * time.Second}
	resp, err := doReq(client, http.MethodGet, url+path, nil, deadline)
	if err != nil {
		st.mu.Lock()
		st.transport++
		st.mu.Unlock()
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s%s: HTTP %d", url, path, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// fetchBoards reads the target's /v1/boards (a fleet lists every node's
// boards there): what the -expect-* verdicts and the trace mode's
// server count are read from.
func fetchBoards(url string, deadline time.Time, st *stats) ([]serve.BoardInfo, error) {
	var boards []serve.BoardInfo
	err := getJSON(url, "/v1/boards", deadline, st, &boards)
	return boards, err
}

// countUnhealthyNodes asks /v1/fleet how many nodes dropped out of the
// healthy rotation; -1 means the query failed (e.g. a single-daemon
// target, which serves no /v1/fleet).
func countUnhealthyNodes(target string, deadline time.Time, st *stats) int {
	var info fleet.Info
	if getJSON(target, "/v1/fleet", deadline, st, &info) != nil {
		return -1
	}
	n := 0
	for _, node := range info.Nodes {
		if !node.Healthy {
			n++
		}
	}
	return n
}

// awaitJob runs one job over the wire: submit (sleeping out each 429's
// Retry-After window, retrying transient transport errors), then poll
// it to a terminal state. It returns that status and the service
// latency: accepted submit to terminal status, less the Retry-After
// windows slept through while polling, so the latency is the server's,
// not the throttle budget's. Every window slept through is charged to
// the tenant's throttle account. Everything on the way — status codes,
// 429 retries, throttle waits, transport and protocol failures — is
// counted in st; an error means no terminal status was reached.
// Closed-loop and trace mode fold the status into their own verdicts.
func awaitJob(client *http.Client, target, tenant string, spec *workload.Spec, deadline time.Time, st *stats) (js serve.JobStatus, svc time.Duration, err error) {
	body, err := json.Marshal(serve.SubmitRequest{Tenant: tenant, Workload: *spec})
	if err != nil {
		panic(err) // specs come from BuiltinSpec or a validated trace; marshal cannot fail
	}
	var n wireTally
	defer st.merge(&n)
	// backOff sleeps out a 429's Retry-After window, charged to the
	// tenant, and returns its length.
	backOff := func(resp *http.Response) time.Duration {
		wait := retryAfterWait(resp)
		n.retries++
		st.noteThrottleWait(tenant, wait)
		sleep(wait)
		return wait
	}
	var sub serve.SubmitResponse
	for {
		if time.Now().After(deadline) {
			return js, 0, fmt.Errorf("deadline exceeded before submit")
		}
		resp, err := doReq(client, http.MethodPost, target+"/v1/jobs", body, deadline)
		if err != nil {
			n.transport++
			return js, 0, err
		}
		code := resp.StatusCode
		n.codes = append(n.codes, code)
		if code == http.StatusTooManyRequests {
			backOff(resp)
			continue
		}
		err = json.NewDecoder(resp.Body).Decode(&sub)
		resp.Body.Close()
		if err != nil {
			n.failed++
			return js, 0, fmt.Errorf("submit: HTTP %d: %w", code, err)
		}
		if code != http.StatusAccepted {
			n.failed++
			return js, 0, fmt.Errorf("submit: HTTP %d", code)
		}
		break
	}
	n.submitted++

	acceptedAt := time.Now()
	var waited time.Duration
	for {
		if time.Now().After(deadline) {
			n.failed++
			return js, 0, fmt.Errorf("deadline exceeded polling job %s", sub.ID)
		}
		resp, err := doReq(client, http.MethodGet, target+"/v1/jobs/"+sub.ID, nil, deadline)
		if err != nil {
			n.transport++
			return js, 0, err
		}
		n.codes = append(n.codes, resp.StatusCode)
		if resp.StatusCode == http.StatusTooManyRequests {
			waited += backOff(resp)
			continue
		}
		err = json.NewDecoder(resp.Body).Decode(&js)
		resp.Body.Close()
		if err != nil {
			n.failed++
			return js, 0, fmt.Errorf("poll job %s: %w", sub.ID, err)
		}
		if js.State == serve.StateDone || js.State == serve.StateFailed {
			return js, time.Since(acceptedAt) - waited, nil
		}
		sleep(20 * time.Millisecond)
	}
}

// runOne is one closed-loop job: awaitJob, then the closed-loop verdict.
// A failure carrying a typed fault kind counts apart when allowFaults is
// set; a done job without a lint-clean result is lint-dirty.
func runOne(client *http.Client, target, tenant string, spec *workload.Spec, checkLint, allowFaults bool, deadline time.Time, st *stats) {
	js, svc, err := awaitJob(client, target, tenant, spec, deadline, st)
	if err != nil {
		return // counted where it happened
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	switch {
	case js.State == serve.StateDone:
		st.noteServiceLocked(tenant, svc)
		st.completed++
		if checkLint && (js.Result == nil || !js.Result.LintClean) {
			st.lintDirty++
		}
	case allowFaults && js.FaultKind != "":
		st.faulted++ // a typed casualty of the fault campaign, not a bug
	default:
		st.failed++
	}
}
