package main

// Regression tests for the client-side accounting: service latency must
// exclude Retry-After waits (the closed-loop 429 split), and the trace
// executor must produce positional outcomes, against a fleet front-end
// too.

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/fleet"
	"repro/internal/loadgen"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/workload"
)

// TestMain lets a test run the command itself: with VFPGALOAD_ARGS set,
// the test binary is vfpgaload given those arguments.
func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv("VFPGALOAD_ARGS"); ok {
		os.Args = append([]string{"vfpgaload"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// A count below one is a usage error, exit 2 naming the flag, before
// anything is sent: -tenants 0 used to panic every worker on a division
// by zero, and -concurrency 0 or a negative -requests sent nothing and
// exited 0, so a smoke test passed vacuously.
func TestCountFlagsRefused(t *testing.T) {
	for _, args := range []string{"-tenants 0", "-concurrency 0", "-requests -1", "-requests 0", "-record x.json -tenants 0"} {
		t.Run(args, func(t *testing.T) {
			cmd := exec.Command(os.Args[0])
			cmd.Dir = t.TempDir()
			cmd.Env = append(os.Environ(), "VFPGALOAD_ARGS=-target http://127.0.0.1:1 -timeout 2s "+args)
			out, err := cmd.CombinedOutput()
			flag := strings.Fields(args)[len(strings.Fields(args))-2]
			var exit *exec.ExitError
			if !errors.As(err, &exit) || exit.ExitCode() != 2 || !strings.Contains(string(out), flag+" ") {
				t.Errorf("exit %v, output %q; want exit 2 naming %s", err, out, flag)
			}
		})
	}
}

// stubSleep replaces the injectable sleep for the duration of a test so
// throttle paths run instantly while still being accounted.
func stubSleep(t *testing.T) {
	t.Helper()
	old := sleep
	sleep = func(time.Duration) {}
	t.Cleanup(func() { sleep = old })
}

// fakeDaemon is a minimal vfpgad look-alike: accepts submissions,
// optionally 429s the first N poll requests per job with a Retry-After
// hint, then reports the job done with a fixed makespan.
type fakeDaemon struct {
	retryAfterPolls int // 429 this many polls per job before answering
	makespan        sim.Time
	faultKind       string // when set, jobs fail with this typed kind

	mu        sync.Mutex
	submitted int
	polls     map[string]int
	tenants   []string
}

func (f *fakeDaemon) server(t *testing.T) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		var req serve.SubmitRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		f.mu.Lock()
		f.submitted++
		id := fmt.Sprintf("j%03d", f.submitted)
		f.tenants = append(f.tenants, req.Tenant)
		f.mu.Unlock()
		w.WriteHeader(http.StatusAccepted)
		json.NewEncoder(w).Encode(serve.SubmitResponse{ID: id})
	})
	mux.HandleFunc("/v1/jobs/", func(w http.ResponseWriter, r *http.Request) {
		id := strings.TrimPrefix(r.URL.Path, "/v1/jobs/")
		f.mu.Lock()
		if f.polls == nil {
			f.polls = map[string]int{}
		}
		f.polls[id]++
		throttle := f.polls[id] <= f.retryAfterPolls
		f.mu.Unlock()
		if throttle {
			w.Header().Set("Retry-After", "2")
			w.WriteHeader(http.StatusTooManyRequests)
			return
		}
		js := serve.JobStatus{ID: id, State: serve.StateDone, Result: &serve.JobResult{Makespan: f.makespan, LintClean: true}}
		if f.faultKind != "" {
			js = serve.JobStatus{ID: id, State: serve.StateFailed, FaultKind: f.faultKind}
		}
		json.NewEncoder(w).Encode(js)
	})
	mux.HandleFunc("/v1/boards", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode([]serve.BoardInfo{{ID: 0}, {ID: 1}})
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv
}

// The closed-loop fix: two Retry-After:2 throttles while polling must
// land in the tenant's throttle account — 4s of waits — while the
// reported service latency stays near the actual wall time, not 4s+.
func TestClosedLoopSplitsThrottleWaitFromServiceLatency(t *testing.T) {
	stubSleep(t)
	fd := &fakeDaemon{retryAfterPolls: 2, makespan: 123}
	srv := fd.server(t)
	st := &stats{codes: map[int]int{}}
	spec, err := workload.BuiltinSpec("synthetic")
	if err != nil {
		t.Fatal(err)
	}
	client := &http.Client{Timeout: 5 * time.Second}
	runOne(client, srv.URL, "alpha", &spec, false, false, time.Now().Add(30*time.Second), st)

	st.mu.Lock()
	defer st.mu.Unlock()
	if st.completed != 1 || st.failed != 0 {
		t.Fatalf("completed=%d failed=%d", st.completed, st.failed)
	}
	a := st.tenants["alpha"]
	if a == nil {
		t.Fatal("no tenant account for alpha")
	}
	if a.throttled != 2 || a.waited != 4*time.Second {
		t.Fatalf("throttle account = %d waits / %s, want 2 / 4s", a.throttled, a.waited)
	}
	// The stubbed sleep means barely any wall time passed; with the 4s of
	// Retry-After waits subtracted, service latency must clamp near zero
	// rather than absorbing the throttle budget.
	if svc := time.Duration(a.svc.Quantile(0.5)); svc > time.Second {
		t.Fatalf("service latency %s absorbed the Retry-After waits", svc)
	}
	if a.completed != 1 {
		t.Fatalf("tenant completed = %d, want 1", a.completed)
	}
}

// Without throttling, service latency is a plain positive wall measure.
func TestClosedLoopServiceLatencyPositive(t *testing.T) {
	fd := &fakeDaemon{makespan: 99}
	srv := fd.server(t)
	st := &stats{codes: map[int]int{}}
	spec, err := workload.BuiltinSpec("synthetic")
	if err != nil {
		t.Fatal(err)
	}
	client := &http.Client{Timeout: 5 * time.Second}
	runOne(client, srv.URL, "beta", &spec, false, false, time.Now().Add(30*time.Second), st)
	st.mu.Lock()
	defer st.mu.Unlock()
	a := st.tenants["beta"]
	if a == nil || a.completed != 1 {
		t.Fatalf("tenant account: %+v", a)
	}
	if a.throttled != 0 || a.waited != 0 {
		t.Fatalf("unthrottled run charged waits: %+v", a)
	}
	if a.svc.Quantile(0.5) <= 0 {
		t.Fatal("service latency must be positive")
	}
}

// fleetServer starts an in-process fleet front-end of 2 nodes x 2
// boards and returns its URL and its board config; both are torn down
// when the test ends.
func fleetServer(t *testing.T) (string, serve.BoardConfig) {
	t.Helper()
	bc := serve.DefaultBoardConfig()
	fl, err := fleet.NewServer(fleet.ServerConfig{
		Nodes:  [][]serve.BoardConfig{{bc, bc}, {bc, bc}},
		Policy: "packing", Version: "test", FaultNode: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	fl.Start()
	t.Cleanup(fl.Drain)
	srv := httptest.NewServer(fl.Handler())
	t.Cleanup(srv.Close)
	return srv.URL, bc
}

// Against a fleet front-end, the one target's /v1/boards counts every
// node's boards: 2 nodes x 2 boards make 4 servers.
func TestQueryServerCount(t *testing.T) {
	url, _ := fleetServer(t)
	st := &stats{codes: map[int]int{}}
	if n := queryServerCount(url, time.Now().Add(time.Minute), st); n != 4 {
		t.Fatalf("queryServerCount = %d, want 4 (2 nodes x 2 boards)", n)
	}
}

// Rotation across endpoints is the fleet front-end's job: sent to one
// fleet target, executeTrace keeps outcomes positional, so entry i's
// outcome is what its own spec makes on a board, whichever node ran it.
// Two replays of what came over the wire are byte-identical.
func TestExecuteTraceRoundRobinAndOutcomes(t *testing.T) {
	url, bc := fleetServer(t)
	st := &stats{codes: map[int]int{}}
	deadline := time.Now().Add(time.Minute)
	direct, err := serve.NewDirectRunner(bc)
	if err != nil {
		t.Fatal(err)
	}
	tr := &workload.Trace{Version: workload.TraceVersion, Seed: 1, Tenants: []string{"a", "b"}}
	var want []workload.Outcome
	for i, name := range []string{"telecom", "storage", "diagnosis", "synthetic", "telecom", "storage"} {
		spec, err := workload.BuiltinSpec(name)
		if err != nil {
			t.Fatal(err)
		}
		spec.SetSeed(uint64(i + 1))
		e := workload.TraceEntry{At: sim.Time(i) * sim.Millisecond, Tenant: tr.Tenants[i%2], Spec: spec}
		tr.Entries = append(tr.Entries, e)
		o, err := direct(e.Tenant, &e.Spec)
		if err != nil {
			t.Fatal(err)
		}
		for k, w := range want {
			if w == o {
				t.Fatalf("entries %d and %d make the same outcome; a shuffle would not show", k, i)
			}
		}
		want = append(want, o)
	}
	outcomes, err := executeTrace(url, tr, traceOpts{deadline: deadline}, st)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(outcomes, want) {
		t.Fatalf("outcomes %+v, want the direct runs' %+v in entry order", outcomes, want)
	}
	if st.submitted != len(want) || st.completed != len(want) {
		t.Fatalf("wire: %d submitted, %d completed, want %d each", st.submitted, st.completed, len(want))
	}
	one, err := loadgen.Replay(tr, outcomes, loadgen.ModelConfig{Servers: 4, Speedup: 1})
	if err != nil {
		t.Fatal(err)
	}
	two, err := loadgen.Replay(tr, outcomes, loadgen.ModelConfig{Servers: 4, Speedup: 1})
	if err != nil {
		t.Fatal(err)
	}
	s1, err := loadgen.EncodeSummary(one.Summary)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := loadgen.EncodeSummary(two.Summary)
	if err != nil {
		t.Fatal(err)
	}
	if string(s1) != string(s2) {
		t.Fatal("replay of wire outcomes is not deterministic")
	}
}

// A typed fault failure is an outcome for the model's error breakdown;
// the replay must not abort.
func TestExecuteTraceTypedFaultIsOutcome(t *testing.T) {
	stubSleep(t)
	fd := &fakeDaemon{faultKind: "config-error"}
	srv := fd.server(t)
	spec, err := workload.BuiltinSpec("storage")
	if err != nil {
		t.Fatal(err)
	}
	tr := &workload.Trace{
		Version: workload.TraceVersion, Seed: 1, Tenants: []string{"a"},
		Entries: []workload.TraceEntry{{At: 0, Tenant: "a", Spec: spec}},
	}
	st := &stats{codes: map[int]int{}}
	outcomes, err := executeTrace(srv.URL, tr, traceOpts{deadline: time.Now().Add(30 * time.Second)}, st)
	if err != nil {
		t.Fatal(err)
	}
	if !outcomes[0].Failed || outcomes[0].FaultKind != "config-error" {
		t.Fatalf("outcome: %+v", outcomes[0])
	}
	if st.faulted != 1 || st.failed != 0 {
		t.Fatalf("faulted=%d failed=%d", st.faulted, st.failed)
	}
}
