// Package fleet scales the serve layer out to many daemons: a Node
// wraps one serve.Pool of boards (so a single process can simulate a
// whole rack of vfpgad instances), and a Scheduler routes incoming jobs
// across nodes through a pluggable PlacementPolicy. In the paper's
// host-OS analogy each node is one virtual device manager; the fleet
// layer is the placement half of the operating system above them —
// jobs are rectangles (strip width × duration) and placement is
// strip-packing with delays (Angermeier et al.): a job goes where it can
// start and finish first, judged by each node's board widths and the
// cost its own pool would place the job at (its queue count until some
// board has measured the job's service time).
//
// The scheduler owns fleet-wide concerns the per-daemon serve layer
// cannot see: one shared admission budget per tenant (so Retry-After
// reflects the whole fleet's capacity), whole-node failure handling
// (an escalated node's jobs re-route to healthy nodes), and routing
// telemetry (vfpgad_fleet_* families, /v1/fleet).
package fleet

import (
	"fmt"
	"sync"

	"repro/internal/rng"
)

// JobView is the placement-relevant shape of a job: the widest compiled
// strip it will configure (its rectangle width, in columns) and its
// tenant.
type JobView struct {
	Width  int
	Tenant string
}

// BoardView is one board's capacity snapshot inside a node view.
type BoardView struct {
	Cols        int
	LargestFree int     // widest contiguous free extent (FragStats.LargestFree)
	FragRatio   float64 // external-fragmentation ratio (FragStats.Ratio)
	Quarantined bool
}

// NodeView is what a placement policy sees of one node: health, queue
// pressure, per-board fragmentation and when the node would finish the
// job.
type NodeView struct {
	ID      int
	Healthy bool // at least one non-quarantined board, not draining
	Queued  int  // queued plus running jobs across the node's boards
	// FinishNS and EstNS are the node's own pool's quote for the job
	// (serve.Quote), in virtual ns. FinishNS is the cost its pool would
	// place the job at: the least queued work plus the job's estimate
	// over its healthy boards with queue room, -1 when none has room.
	// EstNS is the job's least estimate there, the mean makespan of the
	// jobs of its scenario a board completed; 0 before any board has
	// completed one. Both are always 0 in Simulate, whose nodes are alike.
	FinishNS int64
	EstNS    int64
	Boards   []BoardView
}

// Fits reports whether any healthy board of the node currently shows a
// contiguous free extent at least w columns wide.
func (v NodeView) Fits(w int) bool {
	for _, b := range v.Boards {
		if !b.Quarantined && b.LargestFree >= w {
			return true
		}
	}
	return false
}

// PlacementPolicy picks a node for a job given the fleet view.
// Implementations must be safe for concurrent use and deterministic
// given their construction seed and call sequence — the bake-off
// replays identical job streams through each policy and byte-compares
// the outcome.
type PlacementPolicy interface {
	Name() string
	// Place returns the index into nodes of the chosen node and the
	// score it assigned (lower is better; recorded for telemetry). ok
	// is false when no healthy node exists. nodes is only valid for the
	// call: the bake-off refills one view in place between placements, so
	// a policy must not retain it or its Boards.
	Place(job JobView, nodes []NodeView) (idx int, score float64, ok bool)
}

// PolicyNames lists the built-in policies in presentation order.
var PolicyNames = []string{"firstfit", "packing", "random"}

// NewPolicy builds a built-in policy by name. seed only matters for
// "random".
func NewPolicy(name string, seed uint64) (PlacementPolicy, error) {
	switch name {
	case "firstfit":
		return firstFit{}, nil
	case "packing":
		return packing{}, nil
	case "random":
		return newRandomPolicy(seed), nil
	}
	return nil, fmt.Errorf("fleet: unknown placement policy %q (have %v)", name, PolicyNames)
}

// nonFitPenalty separates the scoring tiers: any node with a wide enough
// free extent always scores below every node without one, so a policy
// never queues a job onto a node that cannot currently hold it while a
// fitting alternative exists. packing puts a node whose pool has no queue
// room one tier further down.
const nonFitPenalty = 1e3

// firstFit takes the first healthy node whose boards currently fit the
// job, falling back to the least-queued healthy node — the Tetris
// player who always drops the piece at the leftmost spot.
type firstFit struct{}

func (firstFit) Name() string { return "firstfit" }

func (firstFit) Place(job JobView, nodes []NodeView) (int, float64, bool) {
	for i, n := range nodes {
		if n.Healthy && n.Fits(job.Width) {
			return i, float64(n.Queued), true
		}
	}
	best, bestQ := -1, 0
	for i, n := range nodes {
		if !n.Healthy {
			continue
		}
		if best < 0 || n.Queued < bestQ {
			best, bestQ = i, n.Queued
		}
	}
	if best < 0 {
		return 0, 0, false
	}
	return best, nonFitPenalty + float64(bestQ), true
}

// packing sends a job where it finishes first, then by strip-packing fit:
// among nodes whose boards can hold the strip now, it minimizes the
// node's load first, then the leftover of the tightest fitting extent
// (best fit) and the node's fragmentation ratio — so wide jobs go where
// wide holes are, narrow jobs avoid breaking them up, and load still
// spreads. Nodes that cannot take the strip now only ever score in a
// penalty tier.
type packing struct{}

func (packing) Name() string { return "packing" }

// score is reached by the bake-off and property tests through Place. The
// load is in job-equivalents. Once a healthy node has an estimate for the
// job (minEst > 0), it is the node's FinishNS over that fastest estimate:
// the cost the node's own pool picks a board by, so a node with no
// estimate is priced at its queued work and explored first, and a node
// with no queue room ranks behind every node with room. Without any
// estimate it is the node's queued and running jobs, each of which delays
// the strip by roughly one service time. Leftover and fragmentation are
// tie-breakers within one level.
func (packing) score(job JobView, n NodeView, minEst int64) float64 {
	load := float64(n.Queued)
	if minEst > 0 {
		if n.FinishNS < 0 {
			return 2*nonFitPenalty + load
		}
		load = float64(n.FinishNS) / float64(minEst)
	}
	fits := false
	bestGap := 0.0
	var frag float64
	for _, b := range n.Boards {
		if b.Quarantined {
			continue
		}
		if b.LargestFree >= job.Width {
			gap := float64(b.LargestFree-job.Width) / float64(b.Cols)
			if !fits || gap < bestGap {
				bestGap = gap
			}
			fits = true
		}
		if b.FragRatio > frag {
			frag = b.FragRatio
		}
	}
	if !fits {
		return nonFitPenalty + load
	}
	return load + 0.5*bestGap + 0.25*frag
}

func (p packing) Place(job JobView, nodes []NodeView) (int, float64, bool) {
	var minEst int64
	for _, n := range nodes {
		if n.Healthy && n.EstNS > 0 && (minEst == 0 || n.EstNS < minEst) {
			minEst = n.EstNS
		}
	}
	best, bestScore := -1, 0.0
	for i, n := range nodes {
		if !n.Healthy {
			continue
		}
		s := p.score(job, n, minEst)
		if best < 0 || s < bestScore {
			best, bestScore = i, s
		}
	}
	if best < 0 {
		return 0, 0, false
	}
	return best, bestScore, true
}

// randomPolicy is the control: a uniform pick among healthy nodes,
// blind to fit, fragmentation and queue depth.
type randomPolicy struct {
	mu  sync.Mutex
	src *rng.Source
}

func newRandomPolicy(seed uint64) *randomPolicy {
	return &randomPolicy{src: rng.New(seed)}
}

func (r *randomPolicy) Name() string { return "random" }

func (r *randomPolicy) Place(job JobView, nodes []NodeView) (int, float64, bool) {
	healthy := 0
	for _, n := range nodes {
		if n.Healthy {
			healthy++
		}
	}
	if healthy == 0 {
		return 0, 0, false
	}
	r.mu.Lock()
	k := r.src.Intn(healthy)
	r.mu.Unlock()
	idx := 0 // the k-th healthy node
	for i, n := range nodes {
		if !n.Healthy {
			continue
		}
		if k == 0 {
			idx = i
			break
		}
		k--
	}
	score := float64(nodes[idx].Queued)
	if !nodes[idx].Fits(job.Width) {
		score += nonFitPenalty
	}
	return idx, score, true
}
