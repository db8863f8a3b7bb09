package fleet

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/stats"
)

// The virtual-time queueing kernel: one event loop for every model of
// "jobs queue for boards" in the repo, in the strip-packing-with-delays
// formulation (Angermeier et al.). Jobs are rectangles — strip width ×
// service duration — arriving in time order; an optional serve.Admission
// on the kernel's clock refuses some at the door; a PlacementPolicy
// routes the rest to a node, which packs them onto its boards' region
// maps and queues what does not fit FIFO with head-of-line blocking. The
// run is deterministic: virtual clock, no goroutines. The policy bake-off
// (RunBakeoff) and the load replay (loadgen.Replay) are two
// configurations of it; DESIGN §3.9 has the table.

// SimJob is one rectangle offered to the fleet. The caller fills
// Arrival, Duration, Tenant and Width; Simulate writes the job's fate —
// Admitted, Finished, Start — into the same element: the caller's slice
// is the only per-job array of a run. (F10 makes 36 000 of these a pass:
// a private copy plus an array of fates read +11 % allocated bytes on
// the harness benchmark; this field order keeps the struct at 64 bytes,
// what the bake-off's own job took — TestSimJobSize holds it there.)
type SimJob struct {
	Arrival  sim.Time
	Duration sim.Time // service time once started; zero is legal
	Start    sim.Time // the final start, meaningful when Finished
	Tenant   int32    // index into Shape.Tenants; read only under admission
	Width    int32    // strip width in columns
	slot     int32    // the board it runs on, counted node-major across the fleet
	Admitted bool     // passed admission (always, when the shape has none)
	Finished bool     // ran to completion
	span     *core.Span
	complete sim.Event // in-flight completion; canceled when displaced
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
// priorities stand in for the order a loop that pushed every arrival up
// front would give them: arrivals first (in job order), then the node
// failure, then completions in start order. So a job arriving at the
// instant another finishes queues first and starts at that same instant
// when the completion frees its board — the start time a closed-form
// K-server loop computes as max(arrival, earliest free).
const (
	priArrival = iota
	priFail
	priComplete
)

// simNode is one node's state. Jobs are named by their index in the
// caller's slice.
type simNode struct {
	healthy bool
	boards  []*core.RegionMap
	queue   []int // FIFO; queue[head:] is waiting
	head    int
	running []int // in start order
}

// simulation is one run of the kernel. Jobs live by value in the
// caller's slice, and every event names its job by index: the
// handlers are bound once per run, so an event closes over nothing.
type simulation struct {
	shape    Shape
	policy   PlacementPolicy
	adm      *serve.Admission // nil: everything is admitted
	k        sim.Kernel
	jobs     []SimJob
	next     int       // index of the next job to arrive
	arriveFn func()    // s.arrive, bound once
	finishFn func(int) // s.finish, bound once
	nodes    []simNode
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
	for i := range jobs {
		j := &jobs[i]
		switch {
		case j.Arrival < last:
			return SimTotals{}, fmt.Errorf("fleet: job %d arrives at %d ns, before its predecessor at %d ns", i, j.Arrival, last)
		case j.Width <= 0 || int(j.Width) > shape.Cols:
			return SimTotals{}, fmt.Errorf("fleet: job %d width %d outside (0, %d]", i, j.Width, shape.Cols)
		case j.Duration < 0:
			return SimTotals{}, fmt.Errorf("fleet: job %d has a negative duration", i)
		case admit && (j.Tenant < 0 || int(j.Tenant) >= len(shape.Tenants)):
			return SimTotals{}, fmt.Errorf("fleet: job %d tenant %d outside the %d declared", i, j.Tenant, len(shape.Tenants))
		}
		last = j.Arrival
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
	boardViews := make([]BoardView, shape.Nodes*shape.BoardsPerNode)
	for i := range s.nodes {
		n := &s.nodes[i]
		n.healthy = true
		for b := 0; b < shape.BoardsPerNode; b++ {
			n.boards = append(n.boards, core.NewRegionMap(shape.Cols))
		}
		lo := i * shape.BoardsPerNode
		s.views[i] = NodeView{ID: i, Boards: boardViews[lo : lo+shape.BoardsPerNode : lo+shape.BoardsPerNode]}
	}

	// Arrivals are time-sorted, so one event walks them: the kernel holds
	// the next arrival, the failure and the running jobs' completions.
	if len(jobs) > 0 {
		s.k.SchedulePri(jobs[0].Arrival, priArrival, s.arriveFn)
	}
	if shape.FailNode >= 0 {
		if shape.FailAt < 0 { // before time zero: the node never serves
			s.fail(shape.FailNode)
		} else {
			s.k.ScheduleArg(shape.FailAt, priFail, s.fail, shape.FailNode)
		}
	}
	s.k.Run()
	s.tot.MeanScore = s.scores.Mean()
	return s.tot, nil
}

// arrive admits and places the next job of the stream and schedules
// itself for the one after.
func (s *simulation) arrive() {
	i := s.next
	j := &s.jobs[i]
	s.next++
	if s.next < len(s.jobs) {
		s.k.SchedulePri(s.jobs[s.next].Arrival, priArrival, s.arriveFn)
	}
	if s.adm != nil {
		if ok, _ := s.adm.Allow(s.shape.Tenants[j.Tenant]); !ok {
			return
		}
	}
	j.Admitted = true
	s.place(i)
}

// refreshViews rewrites the shared fleet view from the live node state.
func (s *simulation) refreshViews() {
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
func (s *simulation) place(i int) {
	s.refreshViews()
	idx, score, ok := s.policy.Place(JobView{Width: int(s.jobs[i].Width)}, s.views)
	if !ok {
		return
	}
	s.scores.Observe(score)
	n := &s.nodes[idx]
	if n.head > len(n.queue)/2 { // mostly served: slide the waiting jobs down
		n.queue = n.queue[:copy(n.queue, n.queue[n.head:])]
		n.head = 0
	}
	n.queue = append(n.queue, i)
	s.dispatch(idx)
}

// dispatch starts queued jobs on the node while its queue head fits on
// some board — FIFO with head-of-line blocking, the delay half of
// strip-packing with delays. Best fit across boards: the tightest
// adequate free span, ties to the lowest board id.
func (s *simulation) dispatch(ni int) {
	n := &s.nodes[ni]
	if !n.healthy {
		return
	}
	for n.head < len(n.queue) {
		i := n.queue[n.head]
		j := &s.jobs[i]
		bestBoard := -1
		var bestSpan *core.Span
		for bi, rm := range n.boards {
			if sp := rm.FindFree(int(j.Width), core.BestFit); sp != nil {
				if bestSpan == nil || sp.W < bestSpan.W {
					bestBoard, bestSpan = bi, sp
				}
			}
		}
		if bestBoard < 0 {
			return
		}
		n.head++
		j.span = n.boards[bestBoard].Alloc(bestSpan, int(j.Width), j)
		j.slot = int32(ni*s.shape.BoardsPerNode + bestBoard)
		j.Start = s.k.Now()
		n.running = append(n.running, i)
		j.complete = s.k.ScheduleArg(j.Start+j.Duration, priComplete, s.finishFn, i)
	}
}

// finish retires a job whose completion event fired; a displaced job's
// event was canceled, so every call is for a live run.
func (s *simulation) finish(i int) {
	j := &s.jobs[i]
	ni, board := int(j.slot)/s.shape.BoardsPerNode, int(j.slot)%s.shape.BoardsPerNode
	n := &s.nodes[ni]
	n.boards[board].Release(j.span)
	for r, ri := range n.running {
		if ri == i {
			n.running = append(n.running[:r], n.running[r+1:]...)
			break
		}
	}
	j.Finished = true
	s.tot.Makespan = s.k.Now() // the clock only runs forward
	s.dispatch(ni)
}

// fail takes a node out: queued jobs and running jobs displace (in
// queue order, then start order — deterministic) and re-route through
// the policy, which sees the node unhealthy. Work a running job had
// done is lost; it restarts from scratch elsewhere, charging the
// failure's true cost to the latency tail.
func (s *simulation) fail(ni int) {
	n := &s.nodes[ni]
	if !n.healthy {
		return
	}
	n.healthy = false
	displaced := append(append([]int(nil), n.queue[n.head:]...), n.running...)
	for _, i := range n.running {
		j := &s.jobs[i]
		n.boards[int(j.slot)%s.shape.BoardsPerNode].Release(j.span)
		s.k.Cancel(j.complete)
	}
	n.queue, n.head, n.running = nil, 0, nil
	for _, i := range displaced {
		s.tot.Requeues++
		s.place(i)
	}
}
