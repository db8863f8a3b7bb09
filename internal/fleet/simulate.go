package fleet

import (
	"fmt"
	"time"

	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/stats"
)

// The virtual-time queueing kernel: one event loop for every model of
// "jobs queue for boards" in the repo, and the daemon's own board model
// on a virtual clock. Jobs arrive in time order; an optional
// serve.Admission on the kernel's clock refuses some at the door; a
// PlacementPolicy routes the rest to a node, which it sees as a live
// fleet shows it; the node puts the job on the board serve.Cheaper ranks
// first — the rule serve.Pool picks by, each board pricing the job at its
// serve.ServiceMean for the job's class — and every board runs its own
// FIFO one job at a time, as a live board's worker does. In the terms of
// strip packing with delays (Angermeier et al.), a job is placed by when
// it can start and finish. The run is deterministic: virtual clock, no
// goroutines. The policy bake-off (RunBakeoff) and the load replay
// (loadgen.Replay) are two configurations of it; DESIGN §3.9 has the
// table.

// SimJob is one job offered to the fleet. The caller fills Arrival,
// Duration, Tenant, Width, Class and Failed; Simulate writes the job's
// fate — Admitted, Finished, Start, Board — into the same element: the
// caller's slice is the only per-job array of a run. (The 12k-job
// bake-off makes 36 000 of these a pass; TestSimJobSize holds the
// struct at 56 bytes.)
type SimJob struct {
	Arrival  sim.Time
	Duration sim.Time // service time once started; zero is legal
	Start    sim.Time // the final start, meaningful when Finished
	charge   int64    // the estimate its board queued it at
	Tenant   int32    // index into Shape.Tenants; read only under admission
	Width    int32    // strip width in columns
	Class    int32    // what a board estimates it by: one serve.ServiceMean per class
	Board    int32    // the board it last queued on, counted node-major across the fleet; -1 when lost
	Admitted bool     // passed admission (always, when the shape has none)
	Finished bool     // ran to its end
	// Failed marks a job that runs but fails, as a live board's failed
	// job does: it holds its board for Duration and feeds no estimate.
	Failed bool
}

// Shape is the simulated fleet a job stream runs against.
type Shape struct {
	Nodes, BoardsPerNode, Cols int
	// FailNode, when >= 0, fails that node at FailAt: its queued and
	// running jobs displace and re-route, and it accepts nothing after.
	FailNode int
	FailAt   sim.Time
	// Limits, when Limits.Rate > 0, puts the daemon's own token-bucket
	// admission in front of the fleet, one bucket per name in Tenants; a
	// refused job never reaches a node.
	Limits  serve.TenantLimits
	Tenants []string
}

func (sh Shape) validate() error {
	if sh.Nodes <= 0 || sh.BoardsPerNode <= 0 || sh.Cols <= 0 {
		return fmt.Errorf("fleet: a simulated fleet needs nodes, boards and cols > 0")
	}
	if sh.FailNode >= sh.Nodes {
		return fmt.Errorf("fleet: fail node %d outside the %d-node fleet", sh.FailNode, sh.Nodes)
	}
	return nil
}

// SimTotals is what a run adds up that the per-job fates do not hold.
type SimTotals struct {
	Requeues  int64    // jobs displaced by the node failure
	Makespan  sim.Time // the last completion
	MeanScore float64  // mean placement score the policy assigned
}

// Three event kinds share the kernel, and at equal times their
// priorities order them: arrivals first (in job order), then the node
// failure, then completions in start order. So a job arriving at the
// instant another finishes sees that job still on its board, and when it
// queues behind it, starts at that same instant.
const (
	priArrival = iota
	priFail
	priComplete
)

// simBoard is one board: a FIFO run one job at a time, so a job queued
// on it starts when the board is next free, and the board's service
// record — what serve.Pool keeps per board, on the kernel's clock.
type simBoard struct {
	jobs   int      // the jobs it holds, waiting or running
	freeAt sim.Time // when its last job finishes
	queued int64    // queued work: the charges of the jobs it holds
	svc    []serve.ServiceMean
}

// simNode is one node: all its boards serve while it is healthy, none
// after it fails.
type simNode struct {
	healthy bool
	boards  []simBoard
}

// pick is serve.Pool.pick on a simulated node: the board serve.Cheaper
// ranks first for a job of class c, and its cost there. A simulated
// board's queue has no bound.
func (n *simNode) pick(c int32) (int, int64) {
	best, bestCost := -1, serve.BoardCost{}
	for bi := range n.boards {
		b := &n.boards[bi]
		cost := serve.BoardCost{FinishNS: b.queued + b.svc[c].Estimate(), Load: b.jobs, ID: bi}
		if best < 0 || serve.Cheaper(cost, bestCost) {
			best, bestCost = bi, cost
		}
	}
	return best, bestCost.FinishNS
}

// simulation is one run of the kernel. Jobs live by value in the
// caller's slice, and every event names its job by index: the handlers
// are bound once per run, so an event closes over nothing.
type simulation struct {
	shape    Shape
	policy   PlacementPolicy
	adm      *serve.Admission // nil: everything is admitted
	k        sim.Kernel
	jobs     []SimJob
	next     int       // index of the next job to arrive
	arriveFn func(int) // s.arrive, bound once
	finishFn func(int) // s.finish, bound once
	nodes    []simNode
	boards   []simBoard // every node's boards, node-major
	// views is the one fleet view every Place call sees; its Boards are
	// sub-slices of one backing array, refilled per placement. A policy
	// must not retain it.
	views  []NodeView
	scores *stats.Sample
	tot    SimTotals
}

// Simulate runs jobs — sorted by Arrival — through the shape under the
// policy, writes each job's fate into jobs in place, and returns the
// run's totals. Equal inputs give equal outputs, bit for bit.
func Simulate(shape Shape, policy PlacementPolicy, jobs []SimJob) (SimTotals, error) {
	if err := shape.validate(); err != nil {
		return SimTotals{}, err
	}
	admit := shape.Limits.Rate > 0
	last := sim.Time(0)
	classes := 0
	for i := range jobs {
		j := &jobs[i]
		switch {
		case j.Arrival < last:
			return SimTotals{}, fmt.Errorf("fleet: job %d arrives at %d ns, before its predecessor at %d ns", i, j.Arrival, last)
		case j.Width <= 0 || int(j.Width) > shape.Cols:
			return SimTotals{}, fmt.Errorf("fleet: job %d width %d outside (0, %d]", i, j.Width, shape.Cols)
		case j.Duration < 0:
			return SimTotals{}, fmt.Errorf("fleet: job %d has a negative duration", i)
		case j.Class < 0:
			return SimTotals{}, fmt.Errorf("fleet: job %d has a negative class", i)
		case admit && (j.Tenant < 0 || int(j.Tenant) >= len(shape.Tenants)):
			return SimTotals{}, fmt.Errorf("fleet: job %d tenant %d outside the %d declared", i, j.Tenant, len(shape.Tenants))
		}
		last = j.Arrival
		classes = max(classes, int(j.Class)+1)
		j.Admitted, j.Finished = false, false
	}

	s := &simulation{
		shape:  shape,
		policy: policy,
		jobs:   jobs,
		nodes:  make([]simNode, shape.Nodes),
		views:  make([]NodeView, shape.Nodes),
		scores: stats.NewSample(false),
	}
	s.arriveFn, s.finishFn = s.arrive, s.finish
	if admit {
		s.adm = serve.NewAdmission(shape.Limits, func() time.Time { return time.Unix(0, int64(s.k.Now())) })
	}
	s.boards = make([]simBoard, shape.Nodes*shape.BoardsPerNode)
	boardViews := make([]BoardView, len(s.boards))
	svc := make([]serve.ServiceMean, len(s.boards)*classes)
	for bi := range s.boards {
		s.boards[bi].svc = svc[bi*classes : (bi+1)*classes : (bi+1)*classes]
	}
	for i := range s.nodes {
		lo, hi := i*shape.BoardsPerNode, (i+1)*shape.BoardsPerNode
		s.nodes[i] = simNode{healthy: true, boards: s.boards[lo:hi:hi]}
		s.views[i] = NodeView{ID: i, Boards: boardViews[lo:hi:hi]}
	}

	// Arrivals are time-sorted, so one event walks them: the kernel holds
	// the next arrival, the failure and the completions of the jobs on
	// boards.
	if len(jobs) > 0 {
		s.k.Schedule(jobs[0].Arrival, priArrival, s.arriveFn, 0)
	}
	if shape.FailNode >= 0 {
		if shape.FailAt < 0 { // before time zero: the node never serves
			s.fail(shape.FailNode)
		} else {
			s.k.Schedule(shape.FailAt, priFail, s.fail, shape.FailNode)
		}
	}
	s.k.Run()
	s.tot.MeanScore = s.scores.Mean()
	return s.tot, nil
}

// arrive admits and places the next job of the stream and schedules
// itself for the one after.
func (s *simulation) arrive(i int) {
	j := &s.jobs[i]
	s.next = i + 1
	if s.next < len(s.jobs) {
		s.k.Schedule(s.jobs[s.next].Arrival, priArrival, s.arriveFn, s.next)
	}
	if s.adm != nil {
		if ok, _ := s.adm.Allow(s.shape.Tenants[j.Tenant]); !ok {
			return
		}
	}
	j.Admitted = true
	s.place(i)
}

// refreshViews rewrites the shared fleet view for a job of class c as
// Node.viewOf does live: health, the jobs each node holds, each board's
// width and whether it is idle, and the node's own quote — FinishNS the
// cost its pick would place the job at, EstNS the job's least estimate
// over its healthy boards.
func (s *simulation) refreshViews(c int32) {
	for i := range s.nodes {
		n, v := &s.nodes[i], &s.views[i]
		v.Healthy, v.Queued, v.FinishNS, v.EstNS = n.healthy, 0, -1, 0
		for bi := range n.boards {
			b := &n.boards[bi]
			v.Queued += b.jobs
			v.Boards[bi] = BoardView{Cols: s.shape.Cols, Idle: b.jobs == 0, Quarantined: !n.healthy}
			if est := b.svc[c].Estimate(); n.healthy && est > 0 && (v.EstNS == 0 || est < v.EstNS) {
				v.EstNS = est
			}
		}
		if n.healthy {
			_, v.FinishNS = n.pick(c)
		}
	}
}

// place routes one job through the policy to a node, and onto the board
// the node's pick chooses: charged at that board's estimate, and started
// when the board is next free. Its completion names the job and the
// board. A job with no healthy node left is lost (only possible when
// every node failed).
func (s *simulation) place(i int) {
	j := &s.jobs[i]
	s.refreshViews(j.Class)
	idx, score, ok := s.policy.Place(JobView{Width: int(j.Width)}, s.views)
	if !ok {
		j.Board = -1
		return
	}
	s.scores.Observe(score)
	bi, _ := s.nodes[idx].pick(j.Class)
	b := &s.nodes[idx].boards[bi]
	j.Board = int32(idx*s.shape.BoardsPerNode + bi)
	j.charge = b.svc[j.Class].Estimate()
	b.queued += j.charge
	b.jobs++
	j.Start = max(s.k.Now(), b.freeAt)
	b.freeAt = j.Start + j.Duration
	s.k.Schedule(b.freeAt, priComplete, s.finishFn, i*len(s.boards)+int(j.Board))
}

// finish retires a job from a board: its charge off the board's queued
// work, its makespan into the board's estimate unless it failed. A
// completion naming a board the job has left — its node failed, and it
// was placed again or lost — is void.
func (s *simulation) finish(arg int) {
	j, slot := &s.jobs[arg/len(s.boards)], arg%len(s.boards)
	if int(j.Board) != slot {
		return
	}
	b := &s.boards[slot]
	b.jobs--
	b.queued -= j.charge
	if !j.Failed {
		b.svc[j.Class].Observe(int64(j.Duration))
	}
	j.Finished = true
	s.tot.Makespan = s.k.Now() // the clock only runs forward
}

// fail takes a node out: the jobs on its boards, waiting or running,
// displace and re-route through the policy, which sees the node
// unhealthy, in arrival order. Work a running job had done is lost; it
// restarts from scratch elsewhere, charging the failure's true cost to
// the latency tail.
func (s *simulation) fail(ni int) {
	n := &s.nodes[ni]
	if !n.healthy {
		return
	}
	n.healthy = false
	for bi := range n.boards {
		n.boards[bi] = simBoard{svc: n.boards[bi].svc}
	}
	for i := range s.jobs[:s.next] {
		if j := &s.jobs[i]; j.Admitted && !j.Finished && j.Board >= 0 && int(j.Board)/s.shape.BoardsPerNode == ni {
			s.tot.Requeues++
			s.place(i)
		}
	}
}
