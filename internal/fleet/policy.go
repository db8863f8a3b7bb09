// Package fleet scales the serve layer out to many daemons: a Node
// wraps one serve.Pool of boards (so a single process can simulate a
// whole rack of vfpgad instances), and a Scheduler routes incoming jobs
// across nodes through a pluggable PlacementPolicy. In the paper's
// host-OS analogy each node is one virtual device manager; the fleet
// layer is the placement half of the operating system above them. In the
// terms of strip packing with delays (Angermeier et al.), a job is a
// rectangle — strip width × service time — and placement decides when it
// can start and finish: a job goes to the node whose own pool would
// finish it first (serve.Pool.Quote), and the node puts it on its board
// by the one rule serve.Cheaper. Simulate runs the same rule on a virtual
// clock, so the bake-off and the load model predict the daemon that runs.
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

// BoardView is one board's snapshot inside a node view. Every job runs
// alone on an erased device, so a board offers its full width whenever
// it is idle.
type BoardView struct {
	Cols        int
	Idle        bool // runs nothing and queues nothing
	Quarantined bool
}

// NodeView is what a placement policy sees of one node: health, queue
// pressure, its boards and when the node would finish the job.
type NodeView struct {
	ID      int
	Healthy bool // at least one non-quarantined board, not draining
	Queued  int  // queued plus running jobs across the node's boards
	// FinishNS and EstNS are the node's own pool's quote for the job
	// (serve.Quote), in virtual ns. FinishNS is the cost its pool would
	// place the job at: the least queued work plus the job's estimate
	// over its healthy boards with queue room, -1 when none has room.
	// EstNS is the job's least estimate there, the mean makespan of the
	// jobs of its class a board completed; 0 before any board has
	// completed one.
	FinishNS int64
	EstNS    int64
	Boards   []BoardView
}

// fits reports whether a healthy board of the node is at least w columns
// wide and, when idle is set, runs and queues nothing.
func (v NodeView) fits(w int, idle bool) bool {
	for _, b := range v.Boards {
		if !b.Quarantined && b.Cols >= w && (b.Idle || !idle) {
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

// nonFitPenalty separates the scoring tiers: a node with no healthy
// board as wide as the strip scores above every node with one, and
// packing puts a node whose pool has no queue room one tier further down.
const nonFitPenalty = 1e3

// firstFit takes the first healthy node with a healthy idle board at
// least as wide as the strip, falling back to the least-queued healthy
// node — the Tetris player who always drops the piece at the leftmost
// spot.
type firstFit struct{}

func (firstFit) Name() string { return "firstfit" }

func (firstFit) Place(job JobView, nodes []NodeView) (int, float64, bool) {
	for i, n := range nodes {
		if n.Healthy && n.fits(job.Width, true) {
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

// packing sends a job to the node that finishes it first: the node whose
// own pool's pick cost (FinishNS) is least, in job-equivalents of the
// job's fastest estimate anywhere in the fleet. A node with no estimate
// is priced at its queued work, so it is explored first. Before any
// healthy node has an estimate it is the node's queued and running jobs,
// each of which delays the strip by roughly one service time. A node with
// no healthy board as wide as the strip scores in a penalty tier, and one
// whose pool has no queue room in a tier behind that.
type packing struct{}

func (packing) Name() string { return "packing" }

func (packing) score(job JobView, n NodeView, minEst int64) float64 {
	load := float64(n.Queued)
	if minEst > 0 {
		if n.FinishNS < 0 {
			return 2*nonFitPenalty + load
		}
		load = float64(n.FinishNS) / float64(minEst)
	}
	if !n.fits(job.Width, false) {
		return nonFitPenalty + load
	}
	return load
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
// blind to width, estimates and queue depth.
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
	if !nodes[idx].fits(job.Width, true) {
		score += nonFitPenalty
	}
	return idx, score, true
}
