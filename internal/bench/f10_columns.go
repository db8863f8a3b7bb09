package bench

import (
	"slices"

	"repro/internal/core"
	"repro/internal/flat"
	"repro/internal/fleet"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/stats"
)

// columnBakeoff is the board model F10's table still prints: the one
// fleet.Simulate ran before its boards became the daemon's (one job at a
// time, placed by serve.Cheaper). Here a node packs jobs side by side on
// its boards' region maps, best fit, and queues what does not fit FIFO
// with head-of-line blocking; the policies read each board's widest free
// extent and fragmentation. It stays, byte for byte, because the harness
// benchmark's golden file pins the hash of every table bench.Run renders,
// F10's included. When that file is next regenerated, F10 prints
// fleet.RunBakeoff's rows and this file is deleted (ROADMAP item 5(a));
// its replay states' free list (replays) moves to RunBakeoff's caller.
//
// The arrival stream and the random policy's draws are RunBakeoff's: both
// are pure functions of the config's seed. Only the offered load differs:
// ~90 % of the fleet's column-time, not of its board-time.
func columnBakeoff(cfg fleet.BakeoffConfig, policy string) fleet.BakeoffRow {
	cfg.MeanInterval, cfg.FailAt = columnInterval(cfg)
	s := newColSim(cfg, policy, replays.Take(struct{}{}))
	src := rng.New(cfg.Seed)
	totalWeight := 0
	for _, cl := range cfg.Classes {
		totalWeight += cl.Weight
	}
	t := sim.Time(0)
	for i := range s.jobs {
		t += sim.Time(src.ExpFloat64() * float64(cfg.MeanInterval))
		pick := src.Intn(totalWeight)
		cl := &cfg.Classes[0]
		for ci := range cfg.Classes {
			if pick < cfg.Classes[ci].Weight {
				cl = &cfg.Classes[ci]
				break
			}
			pick -= cfg.Classes[ci].Weight
		}
		s.jobs[i] = colJob{arrival: t, duration: cl.Duration, width: int32(cl.Width)}
	}
	if len(s.jobs) > 0 {
		s.k.Schedule(s.jobs[0].arrival, colPriArrival, s.arriveFn, 0)
	}
	if cfg.FailNode >= 0 {
		s.k.Schedule(cfg.FailAt, colPriFail, s.fail, cfg.FailNode)
	}
	s.k.Run()
	row := s.row()
	replays.Give(struct{}{}, s)
	return row
}

// replays keeps F10's dead replay states, as stacks keeps dead stacks,
// for every pass of the process: a pass's three policies and the next
// pass's run on the job arrays, queues, region maps and samples of the
// ones before. Any state renews to any config, so there is one shape.
var replays = flat.NewFreeList[struct{}, *colSim](0)

// newColSim renews used, a dead replay state, into one for cfg and
// policy, as baseline.NewStack renews a dead stack: each board's region
// map through core.NewRegionMap(cols, used), the kernel reset, every
// slice truncated in its array and the samples emptied. nil builds new.
// The job array is cfg.Jobs long; the caller fills it.
func newColSim(cfg fleet.BakeoffConfig, policy string, used *colSim) *colSim {
	s := used
	if s == nil {
		s = &colSim{scores: stats.NewSample(false), waits: stats.NewSample(true)}
		s.arriveFn, s.finishFn = s.arrive, s.finish
	}
	s.cfg, s.policy, s.rnd = cfg, policy, *rng.New(cfg.Seed)
	s.k.Reset()
	s.jobs = slices.Grow(s.jobs[:0], cfg.Jobs)[:cfg.Jobs]
	s.nodes = slices.Grow(s.nodes[:0], cfg.Nodes)[:cfg.Nodes]
	for i := range s.nodes {
		n := &s.nodes[i]
		n.healthy, n.head = true, 0
		n.queue, n.running = n.queue[:0], n.running[:0]
		n.boards = slices.Grow(n.boards[:0], cfg.BoardsPerNode)[:cfg.BoardsPerNode]
		for b, rm := range n.boards {
			n.boards[b] = core.NewRegionMap(cfg.Cols, rm)
		}
	}
	s.scores.Reset()
	s.waits.Reset()
	s.requeues, s.makespan = 0, 0
	return s
}

// row reads the finished replay's numbers.
func (s *colSim) row() fleet.BakeoffRow {
	s.waits.Reserve(len(s.jobs))
	busyArea := int64(0) // finished column-time
	for i := range s.jobs {
		if j := &s.jobs[i]; j.finished {
			s.waits.Observe(float64(j.start - j.arrival))
			busyArea += int64(j.width) * int64(j.duration)
		}
	}
	row := fleet.BakeoffRow{
		Policy:     s.policy,
		Jobs:       s.cfg.Jobs,
		Completed:  int(s.waits.Count()),
		P50AdmitMS: s.waits.Quantile(0.5) / 1e6,
		P99AdmitMS: s.waits.Quantile(0.99) / 1e6,
		Requeues:   s.requeues,
		MeanScore:  s.scores.Mean(),
		MakespanMS: float64(s.makespan) / 1e6,
	}
	if s.makespan > 0 {
		provisioned := float64(s.cfg.Nodes*s.cfg.BoardsPerNode*s.cfg.Cols) * float64(s.makespan)
		row.HWUtil = float64(busyArea) / provisioned
	}
	return row
}

// columnInterval is the mean inter-arrival time and casualty time that
// put ~90 % of the fleet's column-time under load: E[width×duration]
// over 90 % of the columns.
func columnInterval(cfg fleet.BakeoffConfig) (interval, failAt sim.Time) {
	var meanArea float64
	var totalWeight int
	for _, cl := range cfg.Classes {
		meanArea += float64(cl.Width) * float64(cl.Duration) * float64(cl.Weight)
		totalWeight += cl.Weight
	}
	meanArea /= float64(totalWeight)
	totalCols := float64(cfg.Nodes * cfg.BoardsPerNode * cfg.Cols)
	interval = sim.Time(meanArea / (0.9 * totalCols))
	return interval, sim.Time(cfg.Jobs) * interval * 4 / 10
}

// Event priorities at equal times: arrivals, then the failure, then
// completions in start order.
const (
	colPriArrival = iota
	colPriFail
	colPriComplete
)

// colNonFit separates the scoring tiers: a node with a wide enough free
// extent always scores below every node without one.
const colNonFit = 1e3

// colJob is one rectangle and its fate, 64 bytes as fleet.SimJob was:
// a pass holds 36 000 of them.
type colJob struct {
	arrival, duration, start sim.Time
	span                     *core.Span
	complete                 sim.Event
	width                    int32
	slot                     int32 // the board, counted node-major across the fleet
	finished                 bool
}

type colNode struct {
	healthy bool
	boards  []*core.RegionMap
	queue   []int // FIFO; queue[head:] is waiting
	head    int
	running []int // in start order
}

// queued is the node's waiting plus running jobs.
func (n *colNode) queued() int { return len(n.queue) - n.head + len(n.running) }

// fits reports whether some board shows a free extent w columns wide.
func (n *colNode) fits(w int) bool {
	for _, rm := range n.boards {
		if rm.Frag().LargestFree >= w {
			return true
		}
	}
	return false
}

// colSim is one replay's state; replays keeps the dead ones.
type colSim struct {
	cfg       fleet.BakeoffConfig
	policy    string
	rnd       rng.Source // the random policy's draws
	k         sim.Kernel
	jobs      []colJob
	arriveFn  func(int) // s.arrive, bound once
	finishFn  func(int) // s.finish, bound once
	nodes     []colNode
	displaced []int // fail's scratch
	scores    *stats.Sample
	waits     *stats.Sample // admission delays, filled by row
	requeues  int64
	makespan  sim.Time
}

func (s *colSim) arrive(i int) {
	if i+1 < len(s.jobs) {
		s.k.Schedule(s.jobs[i+1].arrival, colPriArrival, s.arriveFn, i+1)
	}
	s.place(i)
}

// choose is the policy: the node index and its score, or ok false when
// no node is healthy.
func (s *colSim) choose(w int) (idx int, score float64, ok bool) {
	switch s.policy {
	case "firstfit":
		for i := range s.nodes {
			if n := &s.nodes[i]; n.healthy && n.fits(w) {
				return i, float64(n.queued()), true
			}
		}
		best, bestQ := -1, 0
		for i := range s.nodes {
			if n := &s.nodes[i]; n.healthy && (best < 0 || n.queued() < bestQ) {
				best, bestQ = i, n.queued()
			}
		}
		return best, colNonFit + float64(bestQ), best >= 0
	case "packing":
		best, bestScore := -1, 0.0
		for i := range s.nodes {
			if n := &s.nodes[i]; n.healthy {
				if sc := n.packingScore(w); best < 0 || sc < bestScore {
					best, bestScore = i, sc
				}
			}
		}
		return best, bestScore, best >= 0
	default: // random
		healthy := 0
		for i := range s.nodes {
			if s.nodes[i].healthy {
				healthy++
			}
		}
		if healthy == 0 {
			return 0, 0, false
		}
		k := s.rnd.Intn(healthy)
		for i := range s.nodes {
			if n := &s.nodes[i]; n.healthy {
				if k == 0 {
					idx = i
					break
				}
				k--
			}
		}
		n := &s.nodes[idx]
		score = float64(n.queued())
		if !n.fits(w) {
			score += colNonFit
		}
		return idx, score, true
	}
}

// packingScore is the node's load in jobs, then the leftover of its
// tightest fitting extent (best fit) and its worst fragmentation ratio.
func (n *colNode) packingScore(w int) float64 {
	load := float64(n.queued())
	fits := false
	bestGap := 0.0
	var frag float64
	for _, rm := range n.boards {
		f := rm.Frag()
		if f.LargestFree >= w {
			gap := float64(f.LargestFree-w) / float64(rm.Cols())
			if !fits || gap < bestGap {
				bestGap = gap
			}
			fits = true
		}
		if r := f.Ratio(); r > frag {
			frag = r
		}
	}
	if !fits {
		return colNonFit + load
	}
	return load + 0.5*bestGap + 0.25*frag
}

func (s *colSim) place(i int) {
	idx, score, ok := s.choose(int(s.jobs[i].width))
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

// dispatch starts queued jobs while the queue head fits on some board,
// on the tightest adequate free span, ties to the lowest board.
func (s *colSim) dispatch(ni int) {
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
			if sp := rm.FindFree(int(j.width), core.BestFit); sp != nil {
				if bestSpan == nil || sp.W < bestSpan.W {
					bestBoard, bestSpan = bi, sp
				}
			}
		}
		if bestBoard < 0 {
			return
		}
		n.head++
		j.span = n.boards[bestBoard].Alloc(bestSpan, int(j.width), j)
		j.slot = int32(ni*s.cfg.BoardsPerNode + bestBoard)
		j.start = s.k.Now()
		n.running = append(n.running, i)
		j.complete = s.k.Schedule(j.start+j.duration, colPriComplete, s.finishFn, i)
	}
}

func (s *colSim) finish(i int) {
	j := &s.jobs[i]
	ni, board := int(j.slot)/s.cfg.BoardsPerNode, int(j.slot)%s.cfg.BoardsPerNode
	n := &s.nodes[ni]
	n.boards[board].Release(j.span)
	for r, ri := range n.running {
		if ri == i {
			n.running = append(n.running[:r], n.running[r+1:]...)
			break
		}
	}
	j.finished = true
	s.makespan = s.k.Now()
	s.dispatch(ni)
}

// fail takes a node out: its queued, then its running jobs displace and
// re-route; a running job restarts from scratch elsewhere.
func (s *colSim) fail(ni int) {
	n := &s.nodes[ni]
	n.healthy = false
	s.displaced = append(append(s.displaced[:0], n.queue[n.head:]...), n.running...)
	for _, i := range n.running {
		j := &s.jobs[i]
		n.boards[int(j.slot)%s.cfg.BoardsPerNode].Release(j.span)
		s.k.Cancel(j.complete)
	}
	n.queue, n.head, n.running = n.queue[:0], 0, n.running[:0]
	for _, i := range s.displaced {
		s.requeues++
		s.place(i)
	}
}
