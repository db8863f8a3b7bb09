package fleet

import (
	"testing"

	"repro/internal/rng"
)

func view(healthy bool, queued int, boards ...BoardView) NodeView {
	return NodeView{Healthy: healthy, Queued: queued, Boards: boards}
}

// board is an idle, healthy board cols wide.
func board(cols int) BoardView {
	return BoardView{Cols: cols, Idle: true}
}

func TestNewPolicyNames(t *testing.T) {
	for _, name := range PolicyNames {
		p, err := NewPolicy(name, 1)
		if err != nil {
			t.Fatalf("NewPolicy(%q): %v", name, err)
		}
		if p.Name() != name {
			t.Fatalf("NewPolicy(%q).Name() = %q", name, p.Name())
		}
	}
	if _, err := NewPolicy("nope", 1); err == nil {
		t.Fatal("unknown policy accepted")
	}
}

// TestFirstFitPrefersFittingNode: firstfit takes the first healthy node
// with a healthy idle board as wide as the strip.
func TestFirstFitPrefersFittingNode(t *testing.T) {
	p, _ := NewPolicy("firstfit", 0)
	nodes := []NodeView{
		view(true, 1, BoardView{Cols: 24}),                    // wide, but busy
		view(true, 0, board(4)),                               // idle, but too narrow
		view(true, 0, BoardView{Cols: 24, Quarantined: true}), // idle, but quarantined
		view(false, 0, board(24)),                             // unhealthy
		view(true, 9, board(8), BoardView{Cols: 24}),          // first fit
		view(true, 0, board(24)),                              // also fits, but later
	}
	idx, score, ok := p.Place(JobView{Width: 8}, nodes)
	if !ok || idx != 4 {
		t.Fatalf("Place = (%d, %v, %v), want node 4", idx, score, ok)
	}
	// No node fits: fall back to the least-queued healthy node (ties to
	// the first), in the penalty tier.
	idx, score, ok = p.Place(JobView{Width: 30}, nodes)
	if !ok || idx != 1 || score < nonFitPenalty {
		t.Fatalf("no-fit Place = (%d, %v, %v), want node 1 in penalty tier", idx, score, ok)
	}
}

// TestPackingPrefersLowQueueOnWideNode: before any estimate, packing
// takes the least-queued node with a healthy board as wide as the strip;
// how busy that board is now, or how much wider, does not matter.
func TestPackingPrefersLowQueueOnWideNode(t *testing.T) {
	p, _ := NewPolicy("packing", 0)
	nodes := []NodeView{
		view(true, 0, board(6)),                               // idle, but too narrow
		view(true, 0, BoardView{Cols: 24, Quarantined: true}), // wide, but quarantined
		view(true, 5, board(8)),                               // exact width, idle, but queued
		view(true, 2, BoardView{Cols: 24}, board(4)),          // the wide board is busy
		view(true, 2, board(24)),                              // as loaded, but later
	}
	idx, score, ok := p.Place(JobView{Width: 8}, nodes)
	if !ok || idx != 3 || score != 2 {
		t.Fatalf("Place = (%d, %v, %v), want node 3 at its 2 jobs", idx, score, ok)
	}
}

// liveNode is a node as a live fleet shows it: two full-width boards, and
// its pool's quote for the job — the cost it would place the job at and
// the job's least estimate there.
func liveNode(queued int, finishNS, estNS int64) NodeView {
	v := view(true, queued, board(32), board(32))
	v.FinishNS, v.EstNS = finishNS, estNS
	return v
}

// TestPackingPrefersEarliestFinish pins the rule on the views a live fleet
// shows: every board as wide as the strip, so a node scores its pool's
// pick cost in job-equivalents of the job's fastest estimate — whatever
// its job count says.
func TestPackingPrefersEarliestFinish(t *testing.T) {
	p, _ := NewPolicy("packing", 0)
	// One spec's makespans on four managers (virtual µs, seed 1): node 0
	// is {dynamic, partition}, node 1 {amorphous, paged}.
	const dyn, part, amor, paged = 191_100, 173_900, 144_000, 109_500
	for _, c := range []struct {
		name  string
		nodes []NodeView
		want  int
	}{
		{"an idle fast node beats an idle slow one", []NodeView{liveNode(0, 180, 180), liveNode(0, 100, 100)}, 1},
		{"whatever the node order", []NodeView{liveNode(0, 100, 100), liveNode(0, 180, 180)}, 0},
		// A 10 ms burst: paged holds one job, amorphous is idle. The node's
		// own pool would run the next job on amorphous, 144.0 ms, not on
		// node 0's partition, 173.9 ms; a job count plus a slowdown sent it
		// to node 0 (1 + 0 against 0 + 0.59).
		{"a burst: node 1's idle second board beats node 0's fastest", []NodeView{liveNode(0, min(dyn, part), part), liveNode(1, min(paged+paged, amor), paged)}, 1},
		{"a fast node holding less than one job of queued work", []NodeView{liveNode(1, 60+100, 100), liveNode(0, 180, 180)}, 0},
		{"one queued job on the fast node loses to an idle node 1.8x slower", []NodeView{liveNode(1, 200, 100), liveNode(0, 180, 180)}, 1},
		{"but not to one 2.2x slower", []NodeView{liveNode(1, 200, 100), liveNode(0, 220, 220)}, 0},
		{"a node with no estimate is priced at its queued work, explored first", []NodeView{liveNode(0, 180, 180), liveNode(2, 0, 0), liveNode(0, 100, 100)}, 1},
		{"but not past its queued work", []NodeView{liveNode(0, 180, 180), liveNode(1, 250, 0), liveNode(0, 100, 100)}, 2},
		{"equal finishes tie and index order decides", []NodeView{liveNode(0, 150, 150), liveNode(1, 150, 100)}, 0},
		{"an unhealthy node's estimate sets no floor", []NodeView{{FinishNS: 10, EstNS: 10, Boards: []BoardView{board(32)}}, liveNode(1, 200, 100), liveNode(0, 180, 180)}, 2},
		{"a node with no queue room ranks behind any with room", []NodeView{liveNode(2, -1, 100), liveNode(9, 5_000, 180)}, 1},
	} {
		if idx, score, ok := p.Place(JobView{Width: 12}, c.nodes); !ok || idx != c.want || score >= nonFitPenalty {
			t.Errorf("%s: Place = (%d, %v, %v), want node %d in the fit tier", c.name, idx, score, ok, c.want)
		}
	}

	// A full node ranks behind a node with room even where that one's
	// boards are too narrow; among full nodes the least queued wins.
	narrow := liveNode(0, 100, 100)
	narrow.Boards = []BoardView{board(8)}
	if idx, score, ok := p.Place(JobView{Width: 12}, []NodeView{liveNode(0, -1, 100), narrow}); !ok || idx != 1 || score >= 2*nonFitPenalty {
		t.Errorf("full vs narrow: Place = (%d, %v, %v), want the narrow node in the penalty tier", idx, score, ok)
	}
	if idx, _, ok := p.Place(JobView{Width: 12}, []NodeView{liveNode(5, -1, 100), liveNode(3, -1, 100)}); !ok || idx != 1 {
		t.Errorf("every node full: Place = (%d, %v), want the less queued node 1", idx, ok)
	}
}

// fitScore is packing's score without estimates: the node's queued and
// running jobs, in a penalty tier when no healthy board is as wide as the
// strip.
func fitScore(job JobView, n NodeView) float64 {
	for _, b := range n.Boards {
		if !b.Quarantined && b.Cols >= job.Width {
			return float64(n.Queued)
		}
	}
	return nonFitPenalty + float64(n.Queued)
}

// TestPackingWithoutEstimatesUnchanged: over random fleets in which no
// healthy node has an estimate — any fleet before a board has completed
// the job's class — packing picks the node fitScore picks, with the very
// same score, whatever FinishNS reads and whichever boards are idle: a
// fleet with no history routes by load, as it did before nodes were
// priced.
func TestPackingWithoutEstimatesUnchanged(t *testing.T) {
	p, _ := NewPolicy("packing", 0)
	src := rng.New(0x5EED)
	for trial := 0; trial < 5000; trial++ {
		nodes := make([]NodeView, 1+src.Intn(6))
		for i := range nodes {
			boards := make([]BoardView, 1+src.Intn(3))
			for b := range boards {
				boards[b] = BoardView{Cols: 8 + src.Intn(25), Idle: src.Intn(2) == 0, Quarantined: src.Intn(8) == 0}
			}
			nodes[i] = NodeView{ID: i, Healthy: src.Intn(6) != 0, Queued: src.Intn(10), Boards: boards}
			nodes[i].FinishNS = []int64{-1, 0, int64(src.Intn(1_000_000_000))}[src.Intn(3)]
			if !nodes[i].Healthy && src.Intn(2) == 0 {
				nodes[i].EstNS = 1 + int64(src.Intn(1_000_000_000))
			}
		}
		job := JobView{Width: 1 + src.Intn(32)}
		want, wantScore := -1, 0.0
		for i, n := range nodes {
			if s := fitScore(job, n); n.Healthy && (want < 0 || s < wantScore) {
				want, wantScore = i, s
			}
		}
		idx, score, ok := p.Place(job, nodes)
		if ok != (want >= 0) || ok && (idx != want || score != wantScore) {
			t.Fatalf("trial %d: Place = (%d, %v, %v), fitScore (%d, %v)", trial, idx, score, ok, want, wantScore)
		}
	}
}

// TestPackingLiveViewsFinishFirst: over random fleets whose boards are all
// as wide as the strip — random health, estimates and queued work —
// packing picks the healthy node with room whose FinishNS is least, ties
// to the lowest index, once any healthy node has an estimate.
func TestPackingLiveViewsFinishFirst(t *testing.T) {
	p, _ := NewPolicy("packing", 0)
	src := rng.New(0x11FE)
	for trial := 0; trial < 5000; trial++ {
		nodes := make([]NodeView, 1+src.Intn(6))
		estimated := false
		for i := range nodes {
			boards := make([]BoardView, 1+src.Intn(3))
			for b := range boards {
				boards[b] = board(32)
			}
			// Finishes are whole milliseconds out of a few, so nodes tie.
			nodes[i] = NodeView{ID: i, Healthy: src.Intn(6) != 0, Queued: src.Intn(10), Boards: boards,
				FinishNS: int64(src.Intn(8)) * 1_000_000}
			if src.Intn(8) == 0 {
				nodes[i].FinishNS = -1
			}
			if src.Intn(3) > 0 {
				nodes[i].EstNS = 1 + int64(src.Intn(1_000_000_000))
				estimated = estimated || nodes[i].Healthy
			}
		}
		want := -1
		for i, n := range nodes {
			if n.Healthy && n.FinishNS >= 0 && (want < 0 || n.FinishNS < nodes[want].FinishNS) {
				want = i
			}
		}
		if !estimated || want < 0 {
			continue
		}
		if idx, score, ok := p.Place(JobView{Width: 1 + src.Intn(32)}, nodes); !ok || idx != want {
			t.Fatalf("trial %d: Place = (%d, %v, %v), want node %d (FinishNS %d)", trial, idx, score, ok, want, nodes[want].FinishNS)
		}
	}
}

func TestRandomPolicyDeterministicPerSeed(t *testing.T) {
	nodes := []NodeView{
		view(true, 0, board(24)),
		view(true, 0, board(24)),
		view(true, 0, board(24)),
	}
	a, _ := NewPolicy("random", 7)
	b, _ := NewPolicy("random", 7)
	for i := 0; i < 64; i++ {
		ia, _, _ := a.Place(JobView{Width: 4}, nodes)
		ib, _, _ := b.Place(JobView{Width: 4}, nodes)
		if ia != ib {
			t.Fatalf("call %d: same seed diverged (%d vs %d)", i, ia, ib)
		}
	}
}

// TestPackingNeverOverflowsWhenAlternativeFits is the packing safety
// property: over randomized fleets, packing never routes a strip to a
// node with no healthy board as wide as it while some other healthy node
// has one. The two-tier scoring (nonFitPenalty) is what guarantees it.
func TestPackingNeverOverflowsWhenAlternativeFits(t *testing.T) {
	p, _ := NewPolicy("packing", 0)
	src := rng.New(0xF10)
	for trial := 0; trial < 5000; trial++ {
		n := 2 + src.Intn(5)
		nodes := make([]NodeView, n)
		for i := range nodes {
			boards := make([]BoardView, 1+src.Intn(3))
			for b := range boards {
				boards[b] = BoardView{
					Cols:        8 + src.Intn(25),
					Idle:        src.Intn(2) == 0,
					Quarantined: src.Intn(8) == 0,
				}
			}
			nodes[i] = NodeView{
				ID:      i,
				Healthy: src.Intn(6) != 0,
				Queued:  src.Intn(10),
				Boards:  boards,
			}
		}
		w := 1 + src.Intn(32)
		idx, _, ok := p.Place(JobView{Width: w}, nodes)
		if !ok {
			continue
		}
		if nodes[idx].fits(w, false) {
			continue
		}
		for i, nv := range nodes {
			if i != idx && nv.Healthy && nv.fits(w, false) {
				t.Fatalf("trial %d: packing put a %d-col strip on node %d (no board that wide) while node %d has one",
					trial, w, idx, i)
			}
		}
	}
}

// TestRandomPolicyDrawsUnchanged checks the count-and-walk pick against
// the reference it replaced — build the healthy index list, draw one
// Intn(len) — over random health masks: same picks, same scores, and
// (the streams staying in step) the same single draw per call.
func TestRandomPolicyDrawsUnchanged(t *testing.T) {
	const seed = 99
	p := newRandomPolicy(seed)
	ref := rng.New(seed)
	mask := rng.New(7)
	for iter := 0; iter < 5000; iter++ {
		nodes := make([]NodeView, 1+mask.Intn(9))
		var healthy []int
		for i := range nodes {
			nodes[i] = view(mask.Intn(3) > 0, mask.Intn(6), BoardView{Cols: 1 + mask.Intn(24), Idle: mask.Intn(2) == 0})
			if nodes[i].Healthy {
				healthy = append(healthy, i)
			}
		}
		job := JobView{Width: 1 + mask.Intn(24)}
		idx, score, ok := p.Place(job, nodes)
		if len(healthy) == 0 {
			if ok {
				t.Fatalf("iter %d: placed on a fleet with no healthy node", iter)
			}
			continue
		}
		want := healthy[ref.Intn(len(healthy))]
		wantScore := float64(nodes[want].Queued)
		if !nodes[want].fits(job.Width, true) {
			wantScore += nonFitPenalty
		}
		if !ok || idx != want || score != wantScore {
			t.Fatalf("iter %d: Place = (%d, %v, %v), reference (%d, %v)", iter, idx, score, ok, want, wantScore)
		}
	}
}
