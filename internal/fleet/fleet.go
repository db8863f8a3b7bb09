package fleet

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"

	"repro/internal/compile"
	"repro/internal/serve"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Routing errors mapped to HTTP statuses by the fleet server layer.
var (
	// ErrNoSuchNode rejects a pin to a node id outside the fleet (400).
	ErrNoSuchNode = errors.New("fleet: no such node")
	// ErrNoHealthyNode means every node is unhealthy or excluded (503).
	ErrNoHealthyNode = errors.New("fleet: no healthy node")
)

// Node is one simulated vfpgad: a serve.Pool of boards with an id in
// the fleet. Nodes share nothing but the concurrency-safe compile
// cache and the fleet-wide admission sink handed in through opts.
type Node struct {
	id   int
	cfgs []serve.BoardConfig
	pool *serve.Pool
}

// NewNode builds a node over the given boards.
func NewNode(id int, cfgs []serve.BoardConfig, opts serve.PoolOptions) (*Node, error) {
	p, err := serve.NewPool(cfgs, opts)
	if err != nil {
		return nil, fmt.Errorf("fleet: node %d: %w", id, err)
	}
	return &Node{id: id, cfgs: append([]serve.BoardConfig(nil), cfgs...), pool: p}, nil
}

// ID returns the node's fleet id.
func (n *Node) ID() int { return n.id }

// Pool returns the node's board pool.
func (n *Node) Pool() *serve.Pool { return n.pool }

// View snapshots the node for placement: health, queue pressure, the
// pool's quote for a job of no scenario and each board's width and
// whether it is idle. A node is healthy while at least one board is not
// quarantined and the pool is not draining.
func (n *Node) View() NodeView { return n.viewOf(n.pool.BoardInfos(), -1) }

// viewOf is View over board infos the caller already holds, priced by
// the node's pool for a job of scenario scen (-1: none).
func (n *Node) viewOf(infos []serve.BoardInfo, scen int) NodeView {
	q := n.pool.Quote(scen)
	v := NodeView{ID: n.id, FinishNS: q.FinishNS, EstNS: q.EstNS}
	for _, bi := range infos {
		idle := bi.State == "idle" && bi.QueueDepth == 0
		v.Boards = append(v.Boards, BoardView{Cols: bi.Cols, Idle: idle, Quarantined: bi.Quarantined})
		if !bi.Quarantined {
			v.Healthy = true
		}
		v.Queued += bi.QueueDepth
		if bi.State == "busy" {
			v.Queued++
		}
	}
	if n.pool.IsDraining() {
		v.Healthy = false
	}
	return v
}

// Job is one unit of work moving through the fleet: a serve job plus
// the routing envelope around it. The scheduler re-submits it to
// another node when a node-level casualty kills an attempt, so the
// inner serve.Job may change over the fleet job's lifetime.
type Job struct {
	id       string
	tenant   string
	spec     *workload.Spec
	trace    bool
	width    int
	pinNode  *int
	pinBoard *int
	ctx      context.Context
	cancel   context.CancelFunc
	// done is created at construction and closed exactly once in
	// finish; waiting on it needs no lock.
	done chan struct{}

	mu       sync.Mutex
	node     int
	attempts int
	excluded []bool // nodes a casualty took out for this job's whole life
	inner    *serve.Job
	final    *serve.JobStatus
}

// ID returns the fleet-assigned job id.
func (j *Job) ID() string { return j.id }

// Done is closed when the fleet job reaches a terminal state — after
// every re-route attempt, not just the first board's verdict.
func (j *Job) Done() <-chan struct{} { return j.done }

// Cancel cancels the fleet job's context; the current attempt's derived
// context cancels with it.
func (j *Job) Cancel() { j.cancel() }

// JobStatus is a fleet job's status: the serve status plus the node it
// is (or last was) routed to and how many placements it took.
type JobStatus struct {
	serve.JobStatus
	Node     int `json:"node"`
	Attempts int `json:"attempts"`
}

// Status reports the fleet job. A job is in the table before its first
// placement, and while the scheduler is between a failed attempt and its
// re-route; both read as queued — clients never see a transient failure
// that the fleet is about to absorb.
func (j *Job) Status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	var st serve.JobStatus
	switch {
	case j.final != nil:
		st = *j.final
	case j.inner == nil:
		st = serve.JobStatus{Tenant: j.tenant, State: serve.StateQueued, Board: -1}
	default:
		st = j.inner.Status()
		if st.State == serve.StateFailed {
			st.State = serve.StateQueued
		}
	}
	st.ID = j.id
	return JobStatus{JobStatus: st, Node: j.node, Attempts: j.attempts}
}

// view returns the job's placement shape.
func (j *Job) view() JobView { return JobView{Width: j.width, Tenant: j.tenant} }

func (j *Job) setAttempt(node int, inner *serve.Job) {
	j.mu.Lock()
	j.node = node
	j.attempts++
	j.inner = inner
	j.mu.Unlock()
}

func (j *Job) currentInner() *serve.Job {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.inner
}

func (j *Job) exclude(node int) {
	j.mu.Lock()
	j.excluded[node] = true
	j.mu.Unlock()
}

func (j *Job) excludedCopy() []bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return append([]bool(nil), j.excluded...)
}

func (j *Job) finish(st serve.JobStatus) {
	j.mu.Lock()
	j.final = &st
	j.mu.Unlock()
	j.cancel()
	close(j.done)
}

// Scheduler routes jobs across the fleet's nodes through a placement
// policy, owns the fleet-wide job table, and absorbs whole-node
// failures: when a node's casualty kills an attempt, the job re-routes
// to a healthy node no casualty has taken out.
type Scheduler struct {
	// nodes, policy, cache and geom are set at construction and never
	// reassigned; wg is self-synchronized. All sit above mu, which
	// guards the fields below it.
	nodes  []*Node
	policy PlacementPolicy
	cache  *compile.StripCache
	geom   serve.BoardConfig // geometry for placement-width compiles
	wg     sync.WaitGroup

	mu       sync.Mutex
	jobs     *serve.JobTable[*Job]
	routed   []int64 // accepted placements per node
	reroutes int64   // placements after a node-level casualty
	// scores is bounded: buckets of 1/scoreScale units, not a value kept
	// per placement.
	scores   *stats.LatencyRecorder
	draining bool
}

// NewScheduler builds a scheduler over the nodes. cache should be the
// same strip cache the nodes' pools share (placement widths then come
// from the cache the jobs will hit); nil builds a private one.
func NewScheduler(nodes []*Node, policy PlacementPolicy, cache *compile.StripCache) (*Scheduler, error) {
	if len(nodes) == 0 {
		return nil, fmt.Errorf("fleet: a scheduler needs at least one node")
	}
	if policy == nil {
		return nil, fmt.Errorf("fleet: a scheduler needs a placement policy")
	}
	if cache == nil {
		cache = compile.NewStripCache(compile.DefaultCacheCapacity)
	}
	return &Scheduler{
		nodes:  nodes,
		policy: policy,
		cache:  cache,
		geom:   nodes[0].cfgs[0],
		jobs:   serve.NewJobTable[*Job]("f"),
		routed: make([]int64, len(nodes)),
		scores: stats.NewLatencyRecorder(),
	}, nil
}

// Nodes returns the fleet's nodes.
func (s *Scheduler) Nodes() []*Node { return s.nodes }

// Policy returns the active placement policy's name.
func (s *Scheduler) Policy() string { return s.policy.Name() }

// Start launches every node's board workers.
func (s *Scheduler) Start() {
	for _, n := range s.nodes {
		n.pool.Start()
	}
}

// Drain stops intake, drains every node concurrently, and waits for
// all routing watchers to finish. Safe to call more than once.
func (s *Scheduler) Drain() {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	var wg sync.WaitGroup
	for _, n := range s.nodes {
		wg.Add(1)
		go func(n *Node) {
			defer wg.Done()
			n.pool.Drain()
		}(n)
	}
	wg.Wait()
	s.wg.Wait()
}

// IsDraining reports whether Drain has begun.
func (s *Scheduler) IsDraining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Request describes one submission into the fleet.
type Request struct {
	Tenant string
	Spec   *workload.Spec
	Trace  bool
	// Node pins the job to one node; nil lets the policy route it.
	Node *int
	// Board pins the job to one board of the routed (or pinned) node.
	Board *int
	// Ctx/Cancel bound the job's lifetime, as in serve.SubmitArgs.
	Ctx    context.Context
	Cancel context.CancelFunc
}

// Submit routes a job into the fleet and returns it. The admission
// decision is the server layer's; by the time Submit runs the job is
// admitted fleet-wide.
func (s *Scheduler) Submit(req Request) (*Job, error) {
	width, err := serve.SpecWidth(s.cache, s.geom, req.Spec)
	if err != nil {
		return nil, err
	}
	ctx, cancel := req.Ctx, req.Cancel
	if ctx == nil {
		ctx = context.Background()
	}
	if cancel == nil {
		ctx, cancel = context.WithCancel(ctx)
	}
	j := &Job{
		tenant: req.Tenant, spec: req.Spec, trace: req.Trace,
		width: width, pinNode: req.Node, pinBoard: req.Board,
		ctx: ctx, cancel: cancel,
		node: -1, excluded: make([]bool, len(s.nodes)),
		done: make(chan struct{}),
	}
	// Registration, the draining check and the watcher Add share one
	// critical section with Drain setting the flag, so a watcher is
	// never added after Drain's Wait has begun.
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		cancel()
		return nil, serve.ErrDraining
	}
	j.id = s.jobs.Put(j)
	s.wg.Add(1)
	s.mu.Unlock()

	if err := s.place(j); err != nil {
		s.mu.Lock()
		s.jobs.Remove(j.id)
		s.mu.Unlock()
		s.wg.Done()
		cancel()
		return nil, err
	}
	go s.watch(j)
	return j, nil
}

// Job returns the fleet job by id, serve.ErrJobExpired once its record
// has been dropped, or serve.ErrNoSuchJob.
func (s *Scheduler) Job(id string) (*Job, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs.Get(id)
}

// finish starts j's retention in the job table and records its final
// status. Retention starts before j's done channel closes, so jobs a
// client saw finish one after another expire in that order.
func (s *Scheduler) finish(j *Job, st serve.JobStatus) {
	s.mu.Lock()
	s.jobs.Finish(j.id)
	s.mu.Unlock()
	j.finish(st)
}

// place routes one attempt of j: policy choice, then submission into
// the chosen node's pool. A node that rejects the attempt is skipped and
// the policy consulted again, so one hot or dead node never wedges intake
// while an alternative exists. Backpressure (queue full) skips the node
// for this call only: its queue drains, and a later re-route may use it.
// Total board loss is a casualty and excludes the node for the job's
// life.
func (s *Scheduler) place(j *Job) error {
	if j.pinNode != nil {
		idx := *j.pinNode
		if idx < 0 || idx >= len(s.nodes) {
			return fmt.Errorf("%w: %d", ErrNoSuchNode, idx)
		}
		return s.placeOn(j, idx, 0)
	}
	scen := workload.ScenarioIndex(j.spec.Scenario)
	skip := j.excludedCopy()
	for attempt := 0; attempt < len(s.nodes); attempt++ {
		idx, score, ok := s.policy.Place(j.view(), s.views(skip, scen))
		if !ok {
			return ErrNoHealthyNode
		}
		switch err := s.placeOn(j, idx, score); {
		case errors.Is(err, serve.ErrNoHealthyBoard):
			j.exclude(idx)
		case !errors.Is(err, serve.ErrQueueFull):
			return err
		}
		skip[idx] = true
	}
	return serve.ErrQueueFull
}

// placeOn submits one attempt to a specific node. Each attempt gets its
// own context derived from the fleet job's: the pool cancels it when
// the attempt finishes, which must not cancel a later attempt.
func (s *Scheduler) placeOn(j *Job, idx int, score float64) error {
	actx, acancel := context.WithCancel(j.ctx)
	inner, err := s.nodes[idx].pool.Submit(serve.SubmitArgs{
		Tenant: j.tenant, Spec: j.spec, Trace: j.trace,
		Board: j.pinBoard, Ctx: actx, Cancel: acancel,
	})
	if err != nil {
		return err
	}
	j.setAttempt(idx, inner)
	s.mu.Lock()
	s.routed[idx]++
	s.scores.Observe(int64(math.Round(score * scoreScale)))
	s.mu.Unlock()
	return nil
}

// views snapshots every node for a job of scenario scen, marking
// skipped ones unhealthy so the policy routes around them.
func (s *Scheduler) views(skip []bool, scen int) []NodeView {
	views := make([]NodeView, len(s.nodes))
	for i, n := range s.nodes {
		views[i] = n.viewOf(n.pool.BoardInfos(), scen)
		if skip[i] {
			views[i].Healthy = false
		}
	}
	return views
}

// watch follows one fleet job across attempts. The serve pool already
// absorbs board-level quarantines by requeueing inside the node; what
// reaches the fleet as a typed fault failure means the whole node is
// out of healthy boards — the board quarantine/requeue generalized one
// level up: the node is excluded for the job's life, the job re-routes to
// a node no casualty has taken out, and it only fails when the fleet is
// out of nodes. Untyped failures (the job itself is broken) fail in
// place, as do node-pinned jobs.
func (s *Scheduler) watch(j *Job) {
	defer s.wg.Done()
	for {
		inner := j.currentInner()
		<-inner.Done()
		st := inner.Status()
		if st.State == serve.StateDone || st.FaultKind == "" || j.pinNode != nil {
			s.finish(j, st)
			return
		}
		j.mu.Lock()
		failedNode := j.node
		j.mu.Unlock()
		j.exclude(failedNode)
		s.mu.Lock()
		s.reroutes++
		s.mu.Unlock()
		if err := s.place(j); err != nil {
			st.Error = fmt.Sprintf("%s (re-route: %v)", st.Error, err)
			s.finish(j, st)
			return
		}
	}
}

// Routed returns accepted placements per node.
func (s *Scheduler) Routed() []int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]int64(nil), s.routed...)
}

// RerouteCount reports placements made after a node-level casualty.
func (s *Scheduler) RerouteCount() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.reroutes
}

// scoreScale is the fixed point placement scores are recorded in: 1e-4,
// the four decimals the exposition prints. Scores are non-negative.
const scoreScale = 1e4

// ScoreStats summarizes the placement scores the policy assigned to
// accepted placements. The record is bounded — a fixed set of buckets
// however many jobs were placed — so a quantile is its bucket's upper
// bound: at most 1/16 above the exact value and never above the largest
// score. sum and count are exact to the fixed point.
func (s *Scheduler) ScoreStats() (p50, p95, sum float64, count int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return float64(s.scores.Quantile(0.5)) / scoreScale, float64(s.scores.Quantile(0.95)) / scoreScale,
		float64(s.scores.Sum()) / scoreScale, s.scores.Count()
}
