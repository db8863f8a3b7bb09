package serve

// Board choice: an unpinned job goes to the board where it finishes
// first — the least queued work plus its own estimate there — and the
// queued-work counters it reads account for every job exactly once.

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/workload"
)

// tinySpec is the cheapest spec a board runs: one task, one evaluation
// of one circuit, one configuration.
func tinySpec() *workload.Spec {
	return &workload.Spec{
		Scenario:  "synthetic",
		Synthetic: &workload.SyntheticConfig{Tasks: 1, OpsPerTask: 1, EvalsPerOp: 1, Pool: []string{"parity16"}, Seed: 1},
	}
}

// boardOf returns the board a job is queued on or ran on.
func boardOf(j *Job) int { return j.Status().Board }

// TestPickFinishesFirst: a pool with no history spreads by load, then
// board id, as it did before it measured anything; once each board has
// run the scenario, an idle pool sends the next job of it to the board
// that ran it fastest.
func TestPickFinishesFirst(t *testing.T) {
	var cfgs []BoardConfig
	for _, m := range []string{"dynamic", "partition", "paged"} {
		bc := DefaultBoardConfig()
		bc.Manager = m
		cfgs = append(cfgs, bc)
	}
	spec := specFor(t, "multimedia")

	// Workers not started: every job stays in its queue.
	fresh, err := NewPool(cfgs, PoolOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []int{0, 1, 2, 0, 1} {
		j, err := fresh.Submit(SubmitArgs{Tenant: "acme", Spec: spec})
		if err != nil {
			t.Fatal(err)
		}
		if got := boardOf(j); got != want {
			t.Errorf("no history, job %d: board %d, want %d", i, got, want)
		}
	}
	fresh.Drain()

	p, err := NewPool(cfgs, PoolOptions{})
	if err != nil {
		t.Fatal(err)
	}
	p.Start()
	defer p.Drain()
	fastest, best := -1, int64(0)
	for pin := range cfgs {
		j, err := p.Submit(SubmitArgs{Tenant: "acme", Spec: spec, Board: &pin})
		if err != nil {
			t.Fatal(err)
		}
		waitDone(t, j)
		st := j.Status()
		if st.State != StateDone {
			t.Fatalf("board %d: %+v", pin, st)
		}
		if ms := int64(st.Result.Makespan); fastest < 0 || ms < best {
			fastest, best = pin, ms
		}
	}
	if fastest == 0 {
		t.Fatalf("the first board ran fastest: load order alone would pick it")
	}
	j, err := p.Submit(SubmitArgs{Tenant: "acme", Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	if got := boardOf(j); got != fastest {
		t.Errorf("idle pool sent the job to board %d, want the fastest, %d (%d ns)", got, fastest, best)
	}
	if bi := p.BoardInfos()[fastest]; bi.ServiceEstNS[workload.ScenarioIndex("multimedia")] != best {
		t.Errorf("board %d estimate %v, want its one makespan %d", fastest, bi.ServiceEstNS, best)
	}
	waitDone(t, j)
}

// TestQuoteIsPickCost: the pool's quote is the one placement rule read
// from outside. Before each submission its FinishNS is the queued work plus
// the job's estimate on the board the job then lands on, -1 once every
// healthy queue is full; its EstNS is the least estimate among the healthy
// boards, a quarantined board's ignored.
func TestQuoteIsPickCost(t *testing.T) {
	cfgs := []BoardConfig{DefaultBoardConfig(), DefaultBoardConfig(), DefaultBoardConfig()}
	for i := range cfgs {
		cfgs[i].QueueDepth = 2
	}
	// Workers not started: every job stays in its queue.
	p, err := NewPool(cfgs, PoolOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Drain()
	scen := workload.ScenarioIndex(tinySpec().Scenario)
	for i, est := range []int64{1_000_000, 3_000_000, 5_000_000} {
		p.boards[i].svc[scen].sum, p.boards[i].svc[scen].n = est, 1
	}
	p.boards[0].quarantine("config-error")
	if q := p.Quote(scen); q.EstNS != 3_000_000 || q.FinishNS != 3_000_000 {
		t.Errorf("idle quote %+v, want board 1's 3 ms for both", q)
	}
	if q := p.Quote(-1); q.EstNS != 0 || q.FinishNS != 0 {
		t.Errorf("quote for no scenario %+v, want 0s", q)
	}
	accepted := 0
	for {
		q := p.Quote(scen)
		j, err := p.Submit(SubmitArgs{Tenant: "acme", Spec: tinySpec()})
		if errors.Is(err, ErrQueueFull) {
			if q.FinishNS != -1 {
				t.Errorf("every queue full, quote %+v: want FinishNS -1", q)
			}
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		accepted++
		b := p.boards[boardOf(j)]
		b.mu.Lock()
		cost := b.queuedWork // the job's own charge included
		b.mu.Unlock()
		if q.FinishNS != cost {
			t.Errorf("job %d on board %d: quoted %d, placed at %d", accepted, b.id, q.FinishNS, cost)
		}
	}
	if accepted != 4 {
		t.Errorf("%d jobs accepted, want 4: two healthy boards of depth 2", accepted)
	}
}

// TestQueuedWorkConserved: every charge a board's queued work takes is
// taken off again, whichever way the job leaves — completed, failed after
// a cancel while queued, panicked, failed in place when pinned to a board
// that escalates, requeued off a quarantined board — and the rejected
// submissions (a full queue, a pin outside the pool, a pin to a
// quarantined board) charge nothing. After Drain every counter reads 0.
func TestQueuedWorkConserved(t *testing.T) {
	faulty := DefaultBoardConfig()
	faulty.Faults = escalatingPlan(t)
	healthy := DefaultBoardConfig()
	cfgs := []BoardConfig{faulty, healthy, healthy}
	for i := range cfgs {
		cfgs[i].QueueDepth = 2
	}
	p, err := NewPool(cfgs, PoolOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// A record on every board, so every charge is non-zero.
	for i, b := range p.boards {
		for s := range b.svc {
			b.svc[s].sum, b.svc[s].n = int64(i+1)*1_000_000, 1
		}
	}
	// Workers start once every queue is full and the jobs are set up.
	submit := func(pin *int) (*Job, error) {
		return p.Submit(SubmitArgs{Tenant: "acme", Spec: tinySpec(), Board: pin})
	}
	zero, one, seven := 0, 1, 7
	pinned, err := submit(&zero) // fails in place when board 0 escalates
	if err != nil {
		t.Fatal(err)
	}
	jobs := []*Job{pinned}
	for {
		j, err := submit(nil)
		if errors.Is(err, ErrQueueFull) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	if _, err := submit(&one); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("pin to a full board: %v, want ErrQueueFull", err)
	}
	if _, err := submit(&seven); !errors.Is(err, ErrNoSuchBoard) {
		t.Fatalf("pin outside the pool: %v, want ErrNoSuchBoard", err)
	}
	var charged int64
	for _, b := range p.boards {
		b.mu.Lock()
		charged += b.queuedWork
		b.mu.Unlock()
	}
	if charged <= 0 || len(jobs) != 6 {
		t.Fatalf("%d jobs accepted, %d ns charged: want 6 and a charge", len(jobs), charged)
	}

	canceled, panics := jobs[len(jobs)-1], jobs[len(jobs)-2]
	canceled.Cancel()
	// A nil spec panics the worker that runs it; written before the
	// workers start.
	panics.spec = nil
	var displaced []*Job // unpinned jobs queued on the escalating board
	for _, j := range jobs[1:] {
		if boardOf(j) == 0 {
			displaced = append(displaced, j)
		}
	}
	if len(displaced) == 0 || boardOf(canceled) == 0 || boardOf(panics) == 0 {
		t.Fatalf("jobs on boards %d, %d, %d, …: want an unpinned job on board 0 and the canceled and panicking ones elsewhere",
			boardOf(jobs[0]), boardOf(jobs[1]), boardOf(jobs[2]))
	}
	// The healthy boards' workers first, so the queues the displaced jobs
	// move to have room by the time board 0 escalates.
	start := func(b *board) {
		p.wg.Add(1)
		go p.worker(b)
	}
	start(p.boards[1])
	start(p.boards[2])
	for _, j := range jobs {
		if boardOf(j) != 0 {
			waitDone(t, j)
		}
	}
	start(p.boards[0])
	for _, j := range jobs {
		waitDone(t, j)
	}
	if st := pinned.Status(); st.State != StateFailed || st.FaultKind != "config-error" || st.Requeues != 0 {
		t.Errorf("pinned job on the escalating board: %+v, want failed in place", st)
	}
	if st := canceled.Status(); st.State != StateFailed {
		t.Errorf("canceled job: %+v, want failed", st)
	}
	if st := panics.Status(); st.State != StateFailed {
		t.Errorf("nil-spec job: %+v, want failed", st)
	}
	for _, j := range displaced {
		if st := j.Status(); st.State != StateDone || st.Requeues != 1 {
			t.Errorf("job displaced by the quarantine: %+v, want done after one requeue", st)
		}
	}
	if _, err := submit(&zero); !errors.Is(err, ErrBoardQuarantined) {
		t.Fatalf("pin to the quarantined board: %v, want ErrBoardQuarantined", err)
	}
	after, err := submit(nil)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, after)

	p.Drain()
	for _, b := range p.boards {
		b.mu.Lock()
		w := b.queuedWork
		b.mu.Unlock()
		if w != 0 {
			t.Errorf("board %d: %d ns of queued work after Drain, want 0", b.id, w)
		}
	}
}

// TestTenantServiceBounded: ten thousand distinct tenants leave the
// per-tenant service-time table at its cap plus the one shared row, and
// every job is still counted.
func TestTenantServiceBounded(t *testing.T) {
	p, err := NewPool([]BoardConfig{DefaultBoardConfig()}, PoolOptions{})
	if err != nil {
		t.Fatal(err)
	}
	p.Start()
	defer p.Drain()
	const tenants = 10_000
	for i := 0; i < tenants; i++ {
		j, err := p.Submit(SubmitArgs{Tenant: fmt.Sprintf("t%05d", i), Spec: tinySpec()})
		if err != nil {
			t.Fatal(err)
		}
		waitDone(t, j)
	}
	rows := p.TenantServiceStats()
	if len(rows) != maxTenantRows+1 {
		t.Fatalf("%d tenant rows after %d tenants, want %d and the shared row", len(rows), tenants, maxTenantRows)
	}
	var count int64
	for _, r := range rows {
		count += r.Count
	}
	if rows[0].Tenant != otherTenants || rows[0].Count != tenants-maxTenantRows || count != tenants {
		t.Errorf("shared row %+v, %d jobs counted; want %d in the shared row of %d", rows[0], count, tenants-maxTenantRows, tenants)
	}
}
