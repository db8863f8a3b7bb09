package fleet

// Fleet server tests: the HTTP surface over a 3-node fleet, the shared
// fleet-wide admission domain, and node-level casualty re-routing.

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/serve"
	"repro/internal/workload"
)

// testClock is a hand-advanced admission clock.
type testClock struct{ t time.Time }

func (c *testClock) now() time.Time          { return c.t }
func (c *testClock) advance(d time.Duration) { c.t = c.t.Add(d) }

// newTestFleet builds a started nodes×boards fleet of small dynamic
// boards; the cleanup drains it.
func newTestFleet(t *testing.T, cfg ServerConfig, nodes, boardsPer int) *Server {
	t.Helper()
	if cfg.Nodes == nil {
		for i := 0; i < nodes; i++ {
			row := make([]serve.BoardConfig, boardsPer)
			for k := range row {
				row[k] = serve.DefaultBoardConfig()
			}
			cfg.Nodes = append(cfg.Nodes, row)
		}
	}
	if cfg.Policy == "" {
		cfg.Policy = "firstfit"
	}
	if cfg.Version == "" {
		cfg.Version = "test"
	}
	if cfg.FaultNode == 0 && cfg.Faults == nil {
		cfg.FaultNode = -1
	}
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	t.Cleanup(s.Drain)
	return s
}

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
	var body serve.ErrorBody
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
	b, err := json.Marshal(serve.SubmitRequest{Tenant: tenant, Workload: spec})
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// submitWait submits one job and waits for its terminal state.
func submitWait(t *testing.T, s *Server, tenant, scenario string) JobStatus {
	t.Helper()
	rec := do(t, s, "POST", "/v1/jobs", submitBody(t, tenant, scenario))
	if rec.Code != http.StatusAccepted {
		t.Fatalf("submit: got %d, want 202 (body %s)", rec.Code, rec.Body)
	}
	var resp serve.SubmitResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	j, err := s.sched.Job(resp.ID)
	if err != nil {
		t.Fatalf("job %s not registered: %v", resp.ID, err)
	}
	select {
	case <-j.Done():
	case <-time.After(30 * time.Second):
		t.Fatalf("job %s did not finish", resp.ID)
	}
	return j.Status()
}

func TestFleetSubmitRoutesAndCompletes(t *testing.T) {
	s := newTestFleet(t, ServerConfig{}, 3, 2)
	for i := 0; i < 4; i++ {
		st := submitWait(t, s, "acme", "multimedia")
		if st.State != serve.StateDone {
			t.Fatalf("job %s: state %q (error %q)", st.ID, st.State, st.Error)
		}
		if st.Node < 0 || st.Node > 2 || st.Attempts != 1 {
			t.Fatalf("job %s: node %d attempts %d", st.ID, st.Node, st.Attempts)
		}
		// The job endpoint reports the fleet id and routed node.
		rec := do(t, s, "GET", "/v1/jobs/"+st.ID, "")
		if rec.Code != http.StatusOK {
			t.Fatalf("GET job: %d", rec.Code)
		}
		var got JobStatus
		if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
			t.Fatal(err)
		}
		if got.ID != st.ID || got.Node != st.Node {
			t.Fatalf("GET job = %+v, want id %s node %d", got, st.ID, st.Node)
		}
	}

	// /v1/fleet accounts for every placement.
	var info Info
	if err := json.Unmarshal(do(t, s, "GET", "/v1/fleet", "").Body.Bytes(), &info); err != nil {
		t.Fatal(err)
	}
	if info.Policy != "firstfit" || info.Placements != 4 || info.Reroutes != 0 {
		t.Fatalf("fleet info = %+v", info)
	}
	if len(info.Nodes) != 3 {
		t.Fatalf("fleet info has %d nodes", len(info.Nodes))
	}
	var routed int64
	for _, n := range info.Nodes {
		routed += n.Routed
		if !n.Healthy {
			t.Fatalf("node %d unhealthy: %+v", n.ID, n)
		}
		if len(n.Boards) != 2 {
			t.Fatalf("node %d view incomplete: %+v", n.ID, n)
		}
	}
	if routed != 4 {
		t.Fatalf("routed %d, want 4", routed)
	}

	// /v1/boards flattens the fleet with node attribution.
	var boards []BoardInfo
	if err := json.Unmarshal(do(t, s, "GET", "/v1/boards", "").Body.Bytes(), &boards); err != nil {
		t.Fatal(err)
	}
	if len(boards) != 6 {
		t.Fatalf("boards: %d, want 6", len(boards))
	}

	// /healthz reports the fleet shape.
	var h serve.Health
	if err := json.Unmarshal(do(t, s, "GET", "/healthz", "").Body.Bytes(), &h); err != nil {
		t.Fatal(err)
	}
	if h.Nodes != 3 || h.Boards != 6 || h.Status != "ok" {
		t.Fatalf("health = %+v", h)
	}
}

func TestFleetRejectsBadPins(t *testing.T) {
	s := newTestFleet(t, ServerConfig{}, 2, 1)
	spec, err := workload.BuiltinSpec("multimedia")
	if err != nil {
		t.Fatal(err)
	}
	nine, zero := 9, 0
	b, _ := json.Marshal(serve.SubmitRequest{Tenant: "acme", Workload: spec, Node: &nine})
	if rec := do(t, s, "POST", "/v1/jobs", string(b)); rec.Code != http.StatusBadRequest {
		t.Fatalf("node pin outside fleet: got %d, want 400", rec.Code)
	}
	b, _ = json.Marshal(serve.SubmitRequest{Tenant: "acme", Workload: spec, Board: &zero})
	if rec := do(t, s, "POST", "/v1/jobs", string(b)); rec.Code != http.StatusBadRequest {
		t.Fatalf("board pin without node pin: got %d, want 400", rec.Code)
	}
}

// Out-of-range parameters stop at the shared NewAPI with 400: the fleet's
// Submit builds the spec on the HTTP goroutine to size it, so a
// diag_every of 0 used to be a division by zero there.
func TestFleetOutOfRangeParamsRefused(t *testing.T) {
	s := newTestFleet(t, ServerConfig{}, 1, 1)
	if st := submitWait(t, s, "acme", "multimedia"); st.State != serve.StateDone {
		t.Fatalf("first job: %+v", st)
	}
	board := func() serve.BoardInfo { return s.sched.nodes[0].Pool().BoardInfos()[0] }
	before := board()
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
	if st := submitWait(t, s, "acme", "multimedia"); st.State != serve.StateDone {
		t.Fatalf("job after the refusals: %+v", st)
	}
	if after := board(); after.ColdResets != before.ColdResets || after.WarmResets != before.WarmResets+1 {
		t.Errorf("resets %d cold / %d warm after the refusals, were %d / %d",
			after.ColdResets, after.WarmResets, before.ColdResets, before.WarmResets)
	}
}

// The body cap lives in the NewAPI both front-ends share: an oversized
// POST is refused with the typed 413 here too, and a normal job after it
// still runs.
func TestFleetOversizedSubmitRefused(t *testing.T) {
	s := newTestFleet(t, ServerConfig{}, 2, 1)
	huge := `{"tenant":"` + strings.Repeat("a", 1<<20) + `","workload":{"scenario":"multimedia"}}`
	rec := do(t, s, "POST", "/v1/jobs", huge)
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: got %d, want 413", rec.Code)
	}
	var body serve.ErrorBody
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil || body.Error == "" {
		t.Fatalf("413 without a JSON error body: %v (%.200s)", err, rec.Body)
	}
	if st := submitWait(t, s, "acme", "multimedia"); st.State != serve.StateDone {
		t.Fatalf("job after the refusal: %+v", st)
	}
}

// TestNodeViewPricesFastestBoard pins the routing input: every board of a
// node shows its full width — each job starts on an erased device,
// whatever the last one left — and is idle with nothing queued on it, and
// the node is priced by its own
// pool's quote: an idle node finishes a job at the least estimate its
// healthy boards measured for the job's scenario, and at 0 before a board
// has completed one.
func TestNodeViewPricesFastestBoard(t *testing.T) {
	dyn, paged := serve.DefaultBoardConfig(), serve.DefaultBoardConfig()
	paged.Manager = "paged"
	n, err := NewNode(0, []serve.BoardConfig{dyn, paged}, serve.PoolOptions{})
	if err != nil {
		t.Fatal(err)
	}
	scen := workload.ScenarioIndex("multimedia")
	honest := []BoardView{{Cols: dyn.Cols, Idle: true}, {Cols: paged.Cols, Idle: true}}
	if v := n.viewOf(n.Pool().BoardInfos(), scen); len(v.Boards) != 2 || v.Boards[0] != honest[0] || v.Boards[1] != honest[1] || v.EstNS != 0 || v.FinishNS != 0 {
		t.Fatalf("view before any job: %+v, want idle full-width boards and no estimate", v)
	}

	n.Pool().Start()
	spec, err := workload.BuiltinSpec("multimedia")
	if err != nil {
		t.Fatal(err)
	}
	var makespans []int64
	for pin := range 2 {
		j, err := n.Pool().Submit(serve.SubmitArgs{Tenant: "acme", Spec: &spec, Board: &pin})
		if err != nil {
			t.Fatal(err)
		}
		<-j.Done()
		st := j.Status()
		if st.State != serve.StateDone {
			t.Fatalf("job on board %d: %+v", pin, st)
		}
		makespans = append(makespans, int64(st.Result.Makespan))
	}
	n.Pool().Drain()
	if makespans[0] == makespans[1] {
		t.Fatalf("dynamic and paged ran multimedia in the same %d ns: nothing to choose between", makespans[0])
	}

	v := n.viewOf(n.Pool().BoardInfos(), scen)
	if v.Boards[0] != honest[0] || v.Boards[1] != honest[1] {
		t.Errorf("view after the jobs: %+v, want the boards idle at their full widths", v.Boards)
	}
	if want := min(makespans[0], makespans[1]); v.EstNS != want || v.FinishNS != want {
		t.Errorf("EstNS, FinishNS = %d, %d, want the faster board's %d for both (makespans %v)", v.EstNS, v.FinishNS, want, makespans)
	}
	if other := n.viewOf(n.Pool().BoardInfos(), workload.ScenarioIndex("telecom")); other.EstNS != 0 || other.FinishNS != 0 {
		t.Errorf("telecom estimate %d, finish %d with no telecom job run", other.EstNS, other.FinishNS)
	}
}

// The tenant-name bound lives in the shared NewAPI too: the fleet-wide
// admission domain never learns a refused name.
func TestFleetTenantNameBounded(t *testing.T) {
	s := newTestFleet(t, ServerConfig{}, 2, 1)
	for _, c := range []struct {
		name, tenant string
		want         int
	}{
		{"200 KB", strings.Repeat("a", 200<<10), http.StatusBadRequest},
		{"129 bytes", strings.Repeat("a", 129), http.StatusBadRequest},
		{"newline", "a\nb", http.StatusBadRequest},
		{"128 bytes", strings.Repeat("a", 128), http.StatusAccepted},
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

// TestFleetSharedAdmission is the Retry-After satellite: one admission
// domain spans the fleet, so a tenant's budget does not multiply with
// node count, and a 429's Retry-After reflects the earliest token of
// that single fleet-wide bucket.
func TestFleetSharedAdmission(t *testing.T) {
	clock := &testClock{t: time.Unix(1000, 0)}
	s := newTestFleet(t, ServerConfig{
		Tenant: serve.TenantLimits{Rate: 0.5, Burst: 2},
		Now:    clock.now,
	}, 3, 1)

	// Burst of 2 admits fleet-wide — not 2 per node.
	for i := 0; i < 2; i++ {
		if st := submitWait(t, s, "acme", "multimedia"); st.State != serve.StateDone {
			t.Fatalf("burst job %d: %q (%s)", i, st.State, st.Error)
		}
	}
	rec := do(t, s, "POST", "/v1/jobs", submitBody(t, "acme", "multimedia"))
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("third burst submit: got %d, want 429 (3 nodes must not triple the budget)", rec.Code)
	}
	// At 0.5 tokens/s the next token is 2s out; the hint must say so
	// (rounded up), not 0 or a per-node figure.
	if ra := rec.Result().Header.Get("Retry-After"); ra != "2" {
		t.Fatalf("Retry-After = %q, want \"2\"", ra)
	}
	// Waiting out the hint readmits.
	clock.advance(2 * time.Second)
	if st := submitWait(t, s, "acme", "multimedia"); st.State != serve.StateDone {
		t.Fatalf("post-wait job: %q (%s)", st.State, st.Error)
	}
	// Another tenant has its own fleet-wide bucket.
	if st := submitWait(t, s, "rival", "multimedia"); st.State != serve.StateDone {
		t.Fatalf("rival tenant: %q (%s)", st.State, st.Error)
	}
}

// TestFleetNodeCasualtyReroutes generalizes PR 5's board quarantine one
// level up: a node whose boards all escalate drains out of the rotation
// and its jobs re-route to healthy nodes, finishing with no client-visible
// failure.
func TestFleetNodeCasualtyReroutes(t *testing.T) {
	plan, err := fault.ParseSpec("seed=1,retries=0,config-error@1")
	if err != nil {
		t.Fatal(err)
	}
	s := newTestFleet(t, ServerConfig{
		Faults:    &plan,
		FaultNode: 0, // only node 0's boards are armed
	}, 3, 2)

	// firstfit sends the first job to node 0. Its attempt escalates,
	// quarantining the board; the pool's own requeue hands it to the
	// sibling board, which also escalates — so one job takes the whole
	// node out before the fleet sees a single typed failure and
	// re-routes it. Later jobs route straight past the dead node.
	for i := 0; i < 4; i++ {
		st := submitWait(t, s, "acme", "multimedia")
		if st.State != serve.StateDone {
			t.Fatalf("job %d: %q (error %q, fault %q)", i, st.State, st.Error, st.FaultKind)
		}
	}

	var info Info
	if err := json.Unmarshal(do(t, s, "GET", "/v1/fleet", "").Body.Bytes(), &info); err != nil {
		t.Fatal(err)
	}
	if info.Nodes[0].Healthy {
		t.Fatalf("node 0 still healthy after both boards escalated: %+v", info.Nodes[0])
	}
	if info.Reroutes != 1 {
		t.Fatalf("reroutes = %d, want 1 (node 0's casualty displaced one job)", info.Reroutes)
	}
	for _, n := range info.Nodes[1:] {
		if !n.Healthy {
			t.Fatalf("unarmed node %d went unhealthy", n.ID)
		}
	}

	// With node 0 out, new jobs route straight to healthy nodes.
	st := submitWait(t, s, "acme", "multimedia")
	if st.State != serve.StateDone || st.Node == 0 || st.Attempts != 1 {
		t.Fatalf("post-casualty job: %+v", st)
	}
}

// TestFleetBackpressureDoesNotExclude: a node whose full queue bounced a
// job stays open to that job's later re-routes; only a casualty takes a
// node out for the job's whole life. It used to exclude both, so a job
// that once bounced off a node and then lost its second one to a casualty
// failed with "no healthy node" though the first had long drained.
func TestFleetBackpressureDoesNotExclude(t *testing.T) {
	plan, err := fault.ParseSpec("seed=1,retries=0,config-error@1")
	if err != nil {
		t.Fatal(err)
	}
	one := serve.DefaultBoardConfig()
	one.QueueDepth = 1
	s, err := NewServer(ServerConfig{
		Nodes:  [][]serve.BoardConfig{{one}, {one}},
		Policy: "firstfit", Version: "test",
		Faults: &plan, FaultNode: 1, // node 1's first download escalates
	})
	if err != nil {
		t.Fatal(err)
	}
	// Each node's workers start when the test says so; whatever it has
	// not started by the end starts before the drain.
	started := make([]bool, 2)
	start := func(node int) {
		if !started[node] {
			started[node] = true
			s.sched.Nodes()[node].Pool().Start()
		}
	}
	t.Cleanup(func() {
		start(0)
		start(1)
		s.Drain()
	})
	spec, err := workload.BuiltinSpec("multimedia")
	if err != nil {
		t.Fatal(err)
	}
	zero := 0
	pinned, err := s.sched.Submit(Request{Tenant: "acme", Spec: &spec, Node: &zero})
	if err != nil {
		t.Fatal(err)
	}
	// firstfit offers node 0 first; its one queue slot is taken, so the
	// job bounces to node 1.
	j, err := s.sched.Submit(Request{Tenant: "acme", Spec: &spec})
	if err != nil {
		t.Fatal(err)
	}
	if st := j.Status(); st.Node != 1 || st.Attempts != 1 {
		t.Fatalf("after the bounce: node %d, attempts %d; want node 1, 1", st.Node, st.Attempts)
	}
	start(0)
	<-pinned.Done()
	// Node 1 escalates, leaving the job one node: node 0, drained by now.
	start(1)
	select {
	case <-j.Done():
	case <-time.After(30 * time.Second):
		t.Fatal("the re-routed job did not finish")
	}
	if st := j.Status(); st.State != serve.StateDone || st.Node != 0 || st.Attempts != 2 {
		t.Errorf("job: %q on node %d after %d attempts (error %q); want done on node 0 after 2", st.State, st.Node, st.Attempts, st.Error)
	}
}

// TestFleetInfoFinishNS: /v1/fleet shows, per node and scenario, the cost
// the node's own pool would place a job at — the least queued_work_ns +
// service_est_ns over its healthy boards with room — and the next
// unpinned job goes to the node where it is least.
func TestFleetInfoFinishNS(t *testing.T) {
	mgrs := [][]string{{"dynamic", "partition"}, {"amorphous", "paged"}}
	cfg := ServerConfig{Policy: "packing"}
	for _, row := range mgrs {
		var boards []serve.BoardConfig
		for _, m := range row {
			bc := serve.DefaultBoardConfig()
			bc.Manager = m
			boards = append(boards, bc)
		}
		cfg.Nodes = append(cfg.Nodes, boards)
	}
	s := newTestFleet(t, cfg, 0, 0)
	spec, err := workload.BuiltinSpec("multimedia")
	if err != nil {
		t.Fatal(err)
	}
	for node, row := range mgrs {
		for board := range row {
			j, err := s.sched.Submit(Request{Tenant: "acme", Spec: &spec, Node: &node, Board: &board})
			if err != nil {
				t.Fatal(err)
			}
			<-j.Done()
			if st := j.Status(); st.State != serve.StateDone {
				t.Fatalf("pinned job on %s: %+v", row[board], st)
			}
		}
	}

	var info Info
	if err := json.Unmarshal(do(t, s, "GET", "/v1/fleet", "").Body.Bytes(), &info); err != nil {
		t.Fatal(err)
	}
	scen := workload.ScenarioIndex("multimedia")
	best := -1
	for i, n := range info.Nodes {
		for sc, got := range n.FinishNS {
			want := int64(-1)
			for _, b := range n.Boards {
				if c := b.QueuedWorkNS + b.ServiceEstNS[sc]; !b.Quarantined && b.QueueDepth < b.QueueCap && (want < 0 || c < want) {
					want = c
				}
			}
			if got != want {
				t.Errorf("node %d finish_ns[%d] = %d, want %d", n.ID, sc, got, want)
			}
		}
		if best < 0 || n.FinishNS[scen] < info.Nodes[best].FinishNS[scen] {
			best = i
		}
	}
	if a, b := info.Nodes[0].FinishNS[scen], info.Nodes[1].FinishNS[scen]; a == b || a <= 0 || b <= 0 {
		t.Fatalf("multimedia finishes %d and %d: nothing to choose between", a, b)
	}
	if st := submitWait(t, s, "acme", "multimedia"); st.State != serve.StateDone || st.Node != best {
		t.Errorf("unpinned job: %q on node %d, want node %d (finish_ns %d vs %d)", st.State, st.Node, best,
			info.Nodes[0].FinishNS[scen], info.Nodes[1].FinishNS[scen])
	}
}

// TestFleetFaultNodeRange: FaultNode arms exactly the node it names, and
// one the fleet does not have — which used to arm no board at all,
// silently — is refused. The plan escalates a board's first download, so
// a job pinned to a node fails there if and only if the node is armed.
func TestFleetFaultNodeRange(t *testing.T) {
	plan, err := fault.ParseSpec("seed=1,retries=0,config-error@1")
	if err != nil {
		t.Fatal(err)
	}
	spec, err := workload.BuiltinSpec("multimedia")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		faultNode int
		armed     []bool // per node; nil = NewServer must refuse
	}{
		{-1, []bool{true, true, true}},
		{0, []bool{true, false, false}},
		{2, []bool{false, false, true}},
		{3, nil},
		{7, nil},
	} {
		cfg := ServerConfig{Faults: &plan, FaultNode: c.faultNode}
		if c.armed == nil {
			cfg.Nodes = [][]serve.BoardConfig{{serve.DefaultBoardConfig()}, {serve.DefaultBoardConfig()}, {serve.DefaultBoardConfig()}}
			cfg.Policy = "firstfit"
			if _, err := NewServer(cfg); err == nil {
				t.Errorf("fault node %d of a 3-node fleet accepted", c.faultNode)
			}
			continue
		}
		s := newTestFleet(t, cfg, 3, 1)
		for node, armed := range c.armed {
			j, err := s.sched.Submit(Request{Tenant: "acme", Spec: &spec, Node: &node})
			if err != nil {
				t.Fatal(err)
			}
			<-j.Done()
			if failed := j.Status().State != serve.StateDone; failed != armed {
				t.Errorf("fault node %d: job on node %d failed = %v, want %v", c.faultNode, node, failed, armed)
			}
		}
	}
}

func TestFleetMetricsExposition(t *testing.T) {
	s := newTestFleet(t, ServerConfig{Policy: "packing"}, 2, 1)
	if st := submitWait(t, s, "acme", "multimedia"); st.State != serve.StateDone {
		t.Fatalf("job: %q (%s)", st.State, st.Error)
	}
	body := do(t, s, "GET", "/metrics", "").Body.String()
	for _, want := range []string{
		"# TYPE vfpgad_fleet_info gauge",
		`vfpgad_fleet_info{version="test",policy="packing"} 1`,
		"vfpgad_fleet_nodes 2",
		`vfpgad_fleet_routed_total{policy="packing",node="0"}`,
		`vfpgad_fleet_routed_total{policy="packing",node="1"}`,
		"# TYPE vfpgad_fleet_placement_score summary",
		"vfpgad_fleet_placement_score_count 1",
		`vfpgad_fleet_node_healthy{node="0"} 1`,
		`vfpgad_fleet_node_queue_depth{node="1"} 0`,
		`vfpgad_fleet_admission_total{tenant="acme",decision="admitted"} 1`,
		`vfpgad_fleet_jobs_total{tenant="acme",outcome="completed"} 1`,
		"vfpgad_fleet_reroutes_total 0",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

func TestFleetDrainRejectsNewWork(t *testing.T) {
	s := newTestFleet(t, ServerConfig{}, 2, 1)
	if st := submitWait(t, s, "acme", "multimedia"); st.State != serve.StateDone {
		t.Fatalf("job: %q", st.State)
	}
	s.Drain()
	rec := do(t, s, "POST", "/v1/jobs", submitBody(t, "acme", "multimedia"))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining: got %d, want 503", rec.Code)
	}
	var h serve.Health
	if err := json.Unmarshal(do(t, s, "GET", "/healthz", "").Body.Bytes(), &h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "draining" {
		t.Fatalf("health status %q, want draining", h.Status)
	}
}

// TestFleetStatusBeforePlacement reads a job in the window between
// Submit registering it and its first placement (ids are sequential, so
// a client can ask for the next one early): it is queued on no node and
// no board, over the API and in process.
func TestFleetStatusBeforePlacement(t *testing.T) {
	s := newTestFleet(t, ServerConfig{}, 2, 1)
	j := &Job{tenant: "acme", cancel: func() {}, node: -1, excluded: make([]bool, 2), done: make(chan struct{})}
	s.sched.mu.Lock()
	j.id = s.sched.jobs.Put(j)
	s.sched.mu.Unlock()

	rec := do(t, s, "GET", "/v1/jobs/"+j.id, "")
	if rec.Code != http.StatusOK {
		t.Fatalf("GET unplaced job: got %d (body %s)", rec.Code, rec.Body)
	}
	var st JobStatus
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	want := JobStatus{JobStatus: serve.JobStatus{ID: j.id, Tenant: "acme", State: serve.StateQueued, Board: -1}, Node: -1}
	if st != want || j.Status() != want {
		t.Errorf("unplaced job reads %+v over the API and %+v in process, want %+v", st, j.Status(), want)
	}
}

// TestFleetJobTableBounded runs more fleet jobs than the retention cap
// through the HTTP surface of a one-board fleet: the scheduler's table
// stops growing at the cap, the first fleet id answers a typed 410, the
// last 200, an unissued one 404.
func TestFleetJobTableBounded(t *testing.T) {
	s := newTestFleet(t, ServerConfig{}, 1, 1)
	b, err := json.Marshal(serve.SubmitRequest{Tenant: "soak", Workload: workload.Spec{
		Scenario:  "synthetic",
		Synthetic: &workload.SyntheticConfig{Tasks: 1, OpsPerTask: 1, EvalsPerOp: 1, Pool: []string{"parity16"}, Seed: 1},
	}})
	if err != nil {
		t.Fatal(err)
	}
	const extra = 5
	var last string
	for i := 0; i < serve.JobRetention+extra; i++ {
		rec := do(t, s, "POST", "/v1/jobs", string(b))
		if rec.Code != http.StatusAccepted {
			t.Fatalf("submit %d: got %d (body %s)", i, rec.Code, rec.Body)
		}
		var resp serve.SubmitResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		j, err := s.sched.Job(resp.ID)
		if err != nil {
			t.Fatalf("job %s: %v", resp.ID, err)
		}
		<-j.Done()
		last = resp.ID
	}
	// Watchers retire a job before closing Done, so the table reads
	// settled; the drain stops the workers before it is read.
	s.Drain()
	s.sched.mu.Lock()
	held := s.sched.jobs.Len()
	s.sched.mu.Unlock()
	if held != serve.JobRetention {
		t.Errorf("fleet table holds %d jobs after %d, want the cap %d", held, serve.JobRetention+extra, serve.JobRetention)
	}
	for _, method := range []string{"GET", "DELETE"} {
		rec := do(t, s, method, "/v1/jobs/f000001", "")
		if rec.Code != http.StatusGone || errorOf(t, rec) != "job expired" {
			t.Errorf("%s first job: got %d %s, want 410 job expired", method, rec.Code, rec.Body)
		}
		if rec := do(t, s, method, "/v1/jobs/"+last, ""); rec.Code != http.StatusOK {
			t.Errorf("%s last job %s: got %d, want 200", method, last, rec.Code)
		}
		if rec := do(t, s, method, "/v1/jobs/f999999", ""); rec.Code != http.StatusNotFound {
			t.Errorf("%s unissued job: got %d, want 404", method, rec.Code)
		}
	}
}

// scriptedPolicy places every job on node 0 with the next score of its
// script.
type scriptedPolicy struct {
	scores []float64
	next   int
}

func (*scriptedPolicy) Name() string { return "scripted" }

func (p *scriptedPolicy) Place(JobView, []NodeView) (int, float64, bool) {
	s := p.scores[p.next]
	p.next++
	return 0, s, true
}

// TestScoreStatsBounded: the scheduler keeps placement scores in a fixed
// set of buckets, not one value per placement. Count and sum stay exact
// (to the 1e-4 fixed point); a quantile is its bucket's upper bound —
// at or above the exact nearest-rank value, at most 1/16 above it, and
// never above the largest score.
func TestScoreStatsBounded(t *testing.T) {
	// Both tiers of the packing scale, four decimals at most.
	scores := []float64{0, 0.25, 0.3125, 0.0313, 1.5, 2.0625, 7.75, 3.3333, 1000, 1003, 0.125, 1.0001, 4.5, 0.75, 2, 1.25, 0.5, 6.0002, 1.75, 1001.5}
	node, err := NewNode(0, []serve.BoardConfig{serve.DefaultBoardConfig()}, serve.PoolOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sched, err := NewScheduler([]*Node{node}, &scriptedPolicy{scores: scores}, nil)
	if err != nil {
		t.Fatal(err)
	}
	sched.Start()
	defer sched.Drain()
	spec, err := workload.BuiltinSpec("multimedia")
	if err != nil {
		t.Fatal(err)
	}
	var wantSum float64
	for _, s := range scores {
		j, err := sched.Submit(Request{Tenant: "acme", Spec: &spec})
		if err != nil {
			t.Fatal(err)
		}
		<-j.Done()
		wantSum += s
	}
	p50, p95, sum, count := sched.ScoreStats()
	if count != int64(len(scores)) || math.Abs(sum-wantSum) > 1e-9 {
		t.Errorf("count, sum = %d, %v; want %d, %v", count, sum, len(scores), wantSum)
	}
	sorted := append([]float64(nil), scores...)
	sort.Float64s(sorted)
	largest := sorted[len(sorted)-1]
	for _, c := range []struct {
		q, got float64
	}{{0.5, p50}, {0.95, p95}} {
		exact := sorted[int(math.Ceil(c.q*float64(len(sorted))))-1]
		if c.got < exact || c.got > exact*(1+1.0/16) || c.got > largest {
			t.Errorf("q%.2f = %v, want within [%v, %v] and at most %v", c.q, c.got, exact, exact*(1+1.0/16), largest)
		}
	}
}
