package fleet

import (
	"testing"

	"repro/internal/rng"
)

func view(healthy bool, queued int, boards ...BoardView) NodeView {
	return NodeView{Healthy: healthy, Queued: queued, Boards: boards}
}

func board(cols, largest int, frag float64) BoardView {
	return BoardView{Cols: cols, LargestFree: largest, FragRatio: frag}
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

func TestFirstFitPrefersFittingNode(t *testing.T) {
	p, _ := NewPolicy("firstfit", 0)
	nodes := []NodeView{
		view(true, 0, board(24, 4, 0.5)),  // too narrow
		view(false, 0, board(24, 24, 0)),  // unhealthy
		view(true, 9, board(24, 12, 0.1)), // first fit
		view(true, 0, board(24, 24, 0)),   // also fits, but later
	}
	idx, score, ok := p.Place(JobView{Width: 8}, nodes)
	if !ok || idx != 2 {
		t.Fatalf("Place = (%d, %v, %v), want node 2", idx, score, ok)
	}
	// No node fits: fall back to the least-queued healthy node (ties to
	// the first), in the penalty tier.
	idx, score, ok = p.Place(JobView{Width: 30}, nodes)
	if !ok || idx != 0 || score < nonFitPenalty {
		t.Fatalf("no-fit Place = (%d, %v, %v), want node 0 in penalty tier", idx, score, ok)
	}
}

func TestPackingPrefersTightFitAndLowQueue(t *testing.T) {
	p, _ := NewPolicy("packing", 0)
	nodes := []NodeView{
		view(true, 0, board(24, 20, 0.3)), // loose fit
		view(true, 0, board(24, 9, 0.0)),  // tight fit, less frag
		view(true, 5, board(24, 8, 0.0)),  // tightest, but queued
	}
	idx, _, ok := p.Place(JobView{Width: 8}, nodes)
	if !ok || idx != 1 {
		t.Fatalf("Place picked node %d, want 1 (tight fit, empty queue)", idx)
	}
}

// TestPackingRoutesOnResidue pins the placements the live fleet makes
// today from the views fleet_open shows it (EXPERIMENTS "Residue"). A
// board's view is the layout its last job left behind, not capacity — the
// next job runs on an erased device — yet at equal queue depth it decides:
// the dynamic board reads 29–31 free columns, partition and paged 32, the
// amorphous board 7–28, so the best-fit term sends three jobs in four to
// the amorphous node. With honest views every score ties and index order
// decides. A change to what Node.View reports changes these placements.
func TestPackingRoutesOnResidue(t *testing.T) {
	p, _ := NewPolicy("packing", 0)
	node0 := view(true, 0, board(32, 30, 0), board(32, 32, 0)) // dynamic, partition
	node1 := func(largest int, frag float64) NodeView {        // amorphous, paged
		return view(true, 0, board(32, largest, frag), board(32, 32, 0))
	}
	fresh := view(true, 0, board(32, 32, 0), board(32, 32, 0))
	full := view(true, 0, board(32, 7, 0.222), board(32, 10, 0))
	busy := node1(14, 0.067)
	busy.Queued = 1
	for _, c := range []struct {
		name  string
		width int
		nodes []NodeView
		want  int
		fits  bool
	}{
		{"widest strip, amorphous residue just holds it: tighter fit wins", 12, []NodeView{node0, node1(14, 0.067)}, 1, true},
		{"narrow strip, amorphous nearly empty: still the tighter fit", 3, []NodeView{node0, node1(28, 0)}, 1, true},
		{"amorphous residue too narrow: the node fits on its paged board, looser than node 0", 12, []NodeView{node0, node1(7, 0.222)}, 0, true},
		{"honest views tie and index order decides", 12, []NodeView{fresh, fresh}, 0, true},
		{"no board of a node reads wide enough: the fit tier decides", 12, []NodeView{full, fresh}, 1, true},
		{"whatever the node order", 12, []NodeView{fresh, full}, 0, true},
		{"no node reads wide enough: penalty tier, least queued, first", 12, []NodeView{full, full}, 0, false},
		{"one queued job outweighs any residue", 12, []NodeView{node0, busy}, 0, true},
	} {
		idx, score, ok := p.Place(JobView{Width: c.width}, c.nodes)
		if !ok || idx != c.want || (score < nonFitPenalty) != c.fits {
			t.Errorf("%s: Place = (%d, %v, %v), want node %d, fit tier %v", c.name, idx, score, ok, c.want, c.fits)
		}
	}
}

func TestRandomPolicyDeterministicPerSeed(t *testing.T) {
	nodes := []NodeView{
		view(true, 0, board(24, 24, 0)),
		view(true, 0, board(24, 24, 0)),
		view(true, 0, board(24, 24, 0)),
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
// node whose boards cannot currently hold it while some other healthy
// node shows a wide-enough contiguous free extent. The two-tier scoring
// (nonFitPenalty) is what guarantees it.
func TestPackingNeverOverflowsWhenAlternativeFits(t *testing.T) {
	p, _ := NewPolicy("packing", 0)
	src := rng.New(0xF10)
	for trial := 0; trial < 5000; trial++ {
		n := 2 + src.Intn(5)
		nodes := make([]NodeView, n)
		for i := range nodes {
			boards := make([]BoardView, 1+src.Intn(3))
			for b := range boards {
				cols := 8 + src.Intn(25)
				free := src.Intn(cols + 1)
				boards[b] = BoardView{
					Cols:        cols,
					LargestFree: free,
					FragRatio:   src.Float64(),
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
		if nodes[idx].Fits(w) {
			continue
		}
		for i, nv := range nodes {
			if i != idx && nv.Healthy && nv.Fits(w) {
				t.Fatalf("trial %d: packing put a %d-col strip on node %d (largest_free too small) while node %d fits",
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
			nodes[i] = view(mask.Intn(3) > 0, mask.Intn(6), board(24, mask.Intn(25), 0))
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
		if !nodes[want].Fits(job.Width) {
			wantScore += nonFitPenalty
		}
		if !ok || idx != want || score != wantScore {
			t.Fatalf("iter %d: Place = (%d, %v, %v), reference (%d, %v)", iter, idx, score, ok, want, wantScore)
		}
	}
}
