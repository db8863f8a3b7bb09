package fleet

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/stats"
)

// The policy bake-off: a pure virtual-time replay of the fleet in the
// strip-packing-with-delays formulation (Angermeier et al.). Jobs are
// rectangles — strip width × service duration — arriving in a Poisson
// stream; each node packs accepted rectangles onto its boards' region
// maps and queues the rest FIFO with head-of-line blocking. The same
// precomputed arrival stream is replayed against each policy, so the
// only difference between rows is the routing decision — and the whole
// run is deterministic: virtual clock, seeded streams, no goroutines.

// JobClass is one rectangle shape in the churn mix.
type JobClass struct {
	Name     string   `json:"name"`
	Width    int      `json:"width_cols"`
	Duration sim.Time `json:"duration_ns"`
	Weight   int      `json:"weight"`
}

// BakeoffConfig parameterizes one replay.
type BakeoffConfig struct {
	Nodes         int        `json:"nodes"`
	BoardsPerNode int        `json:"boards_per_node"`
	Cols          int        `json:"cols"`
	Jobs          int        `json:"jobs"`
	Seed          uint64     `json:"seed"`
	MeanInterval  sim.Time   `json:"mean_interval_ns"` // mean job inter-arrival time
	Classes       []JobClass `json:"classes"`
	// FailNode, when >= 0, fails that node at FailAt: its queued and
	// running jobs displace and re-route, and it accepts nothing after.
	FailNode int      `json:"fail_node"`
	FailAt   sim.Time `json:"fail_at_ns"`
}

func (c BakeoffConfig) validate() error {
	if c.Nodes <= 0 || c.BoardsPerNode <= 0 || c.Cols <= 0 || c.Jobs <= 0 {
		return fmt.Errorf("fleet: bakeoff needs nodes, boards, cols and jobs > 0")
	}
	if c.MeanInterval <= 0 {
		return fmt.Errorf("fleet: bakeoff needs a positive mean arrival interval")
	}
	if len(c.Classes) == 0 {
		return fmt.Errorf("fleet: bakeoff needs at least one job class")
	}
	for _, cl := range c.Classes {
		if cl.Width <= 0 || cl.Width > c.Cols {
			return fmt.Errorf("fleet: class %q width %d outside (0, %d]", cl.Name, cl.Width, c.Cols)
		}
		if cl.Duration <= 0 || cl.Weight <= 0 {
			return fmt.Errorf("fleet: class %q needs positive duration and weight", cl.Name)
		}
	}
	if c.FailNode >= c.Nodes {
		return fmt.Errorf("fleet: fail node %d outside the %d-node fleet", c.FailNode, c.Nodes)
	}
	return nil
}

// BakeoffRow is one policy's outcome over the replay.
type BakeoffRow struct {
	Policy string `json:"policy"`
	Jobs   int    `json:"jobs"`
	// Completed counts jobs that finished; with one failed node out of
	// several it equals Jobs (every displaced job re-routes).
	Completed int `json:"completed"`
	// HWUtil is sustained hardware utilization: occupied column-time
	// over provisioned column-time (all boards × makespan).
	HWUtil float64 `json:"hw_util"`
	// Admission latency: arrival → final start (virtual ms).
	P50AdmitMS float64 `json:"p50_admit_ms"`
	P99AdmitMS float64 `json:"p99_admit_ms"`
	// Requeues counts jobs displaced by the node failure.
	Requeues int64 `json:"requeues"`
	// MeanScore is the mean placement score the policy assigned.
	MeanScore  float64 `json:"mean_score"`
	MakespanMS float64 `json:"makespan_ms"`
}

// BakeoffRecord is the fleet section of BENCH_serve.json.
type BakeoffRecord struct {
	Config BakeoffConfig `json:"config"`
	Rows   []BakeoffRow  `json:"rows"`
}

// The replay rides sim.Kernel (DESIGN §3.12). Three event kinds share
// it, and at equal times their priorities stand in for the order a loop
// that pushed every arrival up front would give them: arrivals first
// (in job order), then the node failure, then completions in start
// order.
const (
	priArrival = iota
	priFail
	priComplete
)

// bakeJob is one rectangle moving through the replay. Jobs live by
// value in bakeoffSim.jobs; pointers into that slice are stable.
type bakeJob struct {
	class    int
	arrival  sim.Time
	start    sim.Time
	span     *core.Span
	node     int
	board    int
	complete sim.Event // in-flight completion; canceled when displaced
}

// bakeNode is one node's replay state.
type bakeNode struct {
	healthy bool
	boards  []*core.RegionMap
	queue   []*bakeJob // FIFO; queue[head:] is waiting
	head    int
	running []*bakeJob // in start order
}

// bakeoffSim is one policy's replay.
type bakeoffSim struct {
	cfg      BakeoffConfig
	policy   PlacementPolicy
	k        sim.Kernel
	jobs     []bakeJob
	next     int    // index of the next job to arrive
	arriveFn func() // s.arrive, bound once
	nodes    []bakeNode
	// views is the one fleet view every Place call sees; its Boards are
	// sub-slices of one backing array, refilled per placement. A policy
	// must not retain it.
	views    []NodeView
	makespan sim.Time
	busyArea int64 // completed column-time
	waits    *stats.Sample
	scores   *stats.Sample
	requeues int64
	finished int
}

// RunBakeoff replays the configured job stream against one policy and
// returns its row. The arrival stream is a pure function of the config,
// so every policy sees byte-identical inputs.
func RunBakeoff(cfg BakeoffConfig, policyName string) (BakeoffRow, error) {
	if err := cfg.validate(); err != nil {
		return BakeoffRow{}, err
	}
	policy, err := NewPolicy(policyName, cfg.Seed)
	if err != nil {
		return BakeoffRow{}, err
	}
	s := &bakeoffSim{
		cfg:    cfg,
		policy: policy,
		jobs:   make([]bakeJob, cfg.Jobs),
		nodes:  make([]bakeNode, cfg.Nodes),
		views:  make([]NodeView, cfg.Nodes),
		waits:  stats.NewSample(true),
		scores: stats.NewSample(false),
	}
	s.waits.Reserve(cfg.Jobs)
	s.arriveFn = s.arrive
	boardViews := make([]BoardView, cfg.Nodes*cfg.BoardsPerNode)
	for i := range s.nodes {
		n := &s.nodes[i]
		n.healthy = true
		for b := 0; b < cfg.BoardsPerNode; b++ {
			n.boards = append(n.boards, core.NewRegionMap(cfg.Cols))
		}
		lo := i * cfg.BoardsPerNode
		s.views[i] = NodeView{ID: i, Boards: boardViews[lo : lo+cfg.BoardsPerNode : lo+cfg.BoardsPerNode]}
	}

	// The arrival stream: Poisson arrivals over a weighted class mix,
	// identical for every policy.
	src := rng.New(cfg.Seed)
	totalWeight := 0
	for _, cl := range cfg.Classes {
		totalWeight += cl.Weight
	}
	t := sim.Time(0)
	for i := range s.jobs {
		t += sim.Time(src.ExpFloat64() * float64(cfg.MeanInterval))
		pick := src.Intn(totalWeight)
		class := 0
		for ci, cl := range cfg.Classes {
			if pick < cl.Weight {
				class = ci
				break
			}
			pick -= cl.Weight
		}
		s.jobs[i] = bakeJob{class: class, arrival: t}
	}

	// Arrivals are time-sorted, so one event walks them: the kernel holds
	// the next arrival, the failure and the running jobs' completions.
	s.k.SchedulePri(s.jobs[0].arrival, priArrival, s.arriveFn)
	if cfg.FailNode >= 0 {
		if cfg.FailAt < 0 { // before time zero: the node never serves
			s.fail(cfg.FailNode)
		} else {
			s.k.SchedulePri(cfg.FailAt, priFail, func() { s.fail(cfg.FailNode) })
		}
	}
	s.k.Run()

	row := BakeoffRow{
		Policy:     policy.Name(),
		Jobs:       cfg.Jobs,
		Completed:  s.finished,
		P50AdmitMS: s.waits.Quantile(0.5) / 1e6,
		P99AdmitMS: s.waits.Quantile(0.99) / 1e6,
		Requeues:   s.requeues,
		MeanScore:  s.scores.Mean(),
		MakespanMS: float64(s.makespan) / 1e6,
	}
	if s.makespan > 0 {
		provisioned := float64(cfg.Nodes*cfg.BoardsPerNode*cfg.Cols) * float64(s.makespan)
		row.HWUtil = float64(s.busyArea) / provisioned
	}
	return row, nil
}

// RunBakeoffAll replays the stream against each named policy in order.
func RunBakeoffAll(cfg BakeoffConfig, policies []string) (*BakeoffRecord, error) {
	rec := &BakeoffRecord{Config: cfg}
	for _, name := range policies {
		row, err := RunBakeoff(cfg, name)
		if err != nil {
			return nil, err
		}
		rec.Rows = append(rec.Rows, row)
	}
	return rec, nil
}

// arrive places the next job of the stream and schedules itself for the
// one after.
func (s *bakeoffSim) arrive() {
	j := &s.jobs[s.next]
	s.next++
	if s.next < len(s.jobs) {
		s.k.SchedulePri(s.jobs[s.next].arrival, priArrival, s.arriveFn)
	}
	s.place(j)
}

// refreshViews rewrites the shared fleet view from the live node state.
func (s *bakeoffSim) refreshViews() {
	for i := range s.nodes {
		n, v := &s.nodes[i], &s.views[i]
		v.Healthy = n.healthy
		v.Queued = len(n.queue) - n.head + len(n.running)
		for b, rm := range n.boards {
			f := rm.Frag()
			v.Boards[b] = BoardView{
				Cols: rm.Cols(), LargestFree: f.LargestFree, FragRatio: f.Ratio(),
				Quarantined: !n.healthy,
			}
		}
	}
}

// place routes one job through the policy into a node queue. A job with
// no healthy node left is lost (only possible when every node failed).
func (s *bakeoffSim) place(j *bakeJob) {
	s.refreshViews()
	idx, score, ok := s.policy.Place(JobView{Width: s.cfg.Classes[j.class].Width}, s.views)
	if !ok {
		return
	}
	s.scores.Observe(score)
	j.node = idx
	n := &s.nodes[idx]
	if n.head > len(n.queue)/2 { // mostly served: slide the waiting jobs down
		n.queue = n.queue[:copy(n.queue, n.queue[n.head:])]
		n.head = 0
	}
	n.queue = append(n.queue, j)
	s.dispatch(n)
}

// dispatch starts queued jobs on the node while its queue head fits on
// some board — FIFO with head-of-line blocking, the delay half of
// strip-packing with delays. Best fit across boards: the tightest
// adequate free span, ties to the lowest board id.
func (s *bakeoffSim) dispatch(n *bakeNode) {
	if !n.healthy {
		return
	}
	for n.head < len(n.queue) {
		j := n.queue[n.head]
		cl := s.cfg.Classes[j.class]
		bestBoard := -1
		var bestSpan *core.Span
		for bi, rm := range n.boards {
			if sp := rm.FindFree(cl.Width, core.BestFit); sp != nil {
				if bestSpan == nil || sp.W < bestSpan.W {
					bestBoard, bestSpan = bi, sp
				}
			}
		}
		if bestBoard < 0 {
			return
		}
		n.head++
		j.span = n.boards[bestBoard].Alloc(bestSpan, cl.Width, j)
		j.board = bestBoard
		j.start = s.k.Now()
		n.running = append(n.running, j)
		j.complete = s.k.SchedulePri(j.start+cl.Duration, priComplete, func() { s.finish(j) })
	}
}

// finish retires a job whose completion event fired; a displaced job's
// event was canceled, so every call is for a live run.
func (s *bakeoffSim) finish(j *bakeJob) {
	n := &s.nodes[j.node]
	n.boards[j.board].Release(j.span)
	for i, r := range n.running {
		if r == j {
			n.running = append(n.running[:i], n.running[i+1:]...)
			break
		}
	}
	cl := s.cfg.Classes[j.class]
	s.finished++
	s.busyArea += int64(cl.Width) * int64(cl.Duration)
	s.waits.Observe(float64(j.start - j.arrival))
	if now := s.k.Now(); now > s.makespan {
		s.makespan = now
	}
	s.dispatch(n)
}

// fail takes a node out: queued jobs and running jobs displace (in
// queue order, then start order — deterministic) and re-route through
// the policy, which sees the node unhealthy. Work a running job had
// done is lost; it restarts from scratch elsewhere, charging the
// failure's true cost to the latency tail.
func (s *bakeoffSim) fail(ni int) {
	n := &s.nodes[ni]
	if !n.healthy {
		return
	}
	n.healthy = false
	displaced := append(append([]*bakeJob(nil), n.queue[n.head:]...), n.running...)
	for _, j := range n.running {
		n.boards[j.board].Release(j.span)
		s.k.Cancel(j.complete)
	}
	n.queue, n.head, n.running = nil, 0, nil
	for _, j := range displaced {
		s.requeues++
		s.place(j)
	}
}
