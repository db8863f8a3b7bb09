package route

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"testing"

	"repro/internal/netlist"
	"repro/internal/place"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/techmap"
)

func placed(t *testing.T, nl *netlist.Netlist) *place.Placement {
	t.Helper()
	m, err := techmap.Map(nl)
	if err != nil {
		t.Fatal(err)
	}
	w, h := place.Shape(m.NumCells())
	p, err := place.Place(m, w, h, place.Options{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestRouteLibrarySample(t *testing.T) {
	for _, nl := range []*netlist.Netlist{
		netlist.Adder(8), netlist.Multiplier(4), netlist.Counter(8),
		netlist.ALU(8), netlist.LFSR(16, []int{15, 13, 12, 10}),
	} {
		p := placed(t, nl)
		r, err := Route(p, 12, Options{})
		if err != nil {
			t.Fatalf("%s: %v", nl.Name, err)
		}
		if r.MaxUse > 12 {
			t.Fatalf("%s: max use %d exceeds capacity", nl.Name, r.MaxUse)
		}
		if r.TotalHops <= 0 {
			t.Fatalf("%s: no hops routed", nl.Name)
		}
	}
}

// negotiated routes p and returns the negotiation's working state beside
// the result.
func negotiated(p *place.Placement, tracks int) (*Result, *Router, error) {
	var ng Router
	r, err := ng.Route(p, tracks, Options{})
	return r, &ng, err
}

// newRouteScratch is a scratch readied for a negotiation over g.
func newRouteScratch(g grid, tracks int) *routeScratch {
	s := new(routeScratch)
	s.reset(g, tracks)
	return s
}

// path returns connection i's path in the last negotiation pass,
// endpoints included.
func (ng *Router) path(i int) []int32 {
	sp := ng.pathAt[i]
	return ng.arena[sp.off : sp.off+sp.n]
}

// checkRouting holds the last negotiation pass to the placement: one path
// per sink a signal drives, from the driver's cell or input port to the
// sink's cell or output port, orthogonally contiguous and inside the
// region. A path's length less one is the hop count the result keeps for
// its sink, and the counts sum to TotalHops. No channel carries more than
// tracks nets, each net counted once however many of its sinks share it.
func checkRouting(t *testing.T, p *place.Placement, r *Result, ng *Router, tracks int) {
	t.Helper()
	m := p.Mapped
	// Every sink, numbered as SinkHops numbers them.
	type sink struct {
		src      techmap.Signal
		from, to place.Loc
	}
	var sinks []sink
	add := func(src techmap.Signal, to place.Loc) {
		s := sink{src: src, to: to}
		switch src.Kind {
		case techmap.SigCell:
			s.from = p.Cells[src.Cell]
		case techmap.SigInput:
			s.from = p.InPorts[src.Input]
		}
		sinks = append(sinks, s)
	}
	for ci := range m.Cells {
		for _, in := range m.Cells[ci].Inputs {
			add(in, p.Cells[ci])
		}
	}
	for oi, sig := range m.Outputs {
		add(sig, p.OutPorts[oi])
	}
	if len(r.SinkHops) != len(sinks) {
		t.Fatalf("%s: %d hop counts for %d sinks", m.Name, len(r.SinkHops), len(sinks))
	}
	if r.Conns != len(ng.conns) {
		t.Fatalf("%s: result counts %d connections, the negotiation routed %d", m.Name, r.Conns, len(ng.conns))
	}
	g := grid{w: p.W, h: p.H}
	routed := make([]bool, len(sinks))
	used := map[techmap.Signal]map[edgeID]bool{}
	for i, c := range ng.conns {
		s := sinks[c.slot]
		if s.src.Kind == techmap.SigConst || routed[c.slot] {
			t.Fatalf("%s: connection %d routes sink %d, driven by a constant or routed before", m.Name, i, c.slot)
		}
		routed[c.slot] = true
		path := ng.path(i)
		if len(path) == 0 {
			t.Fatalf("%s: connection %d has an empty path", m.Name, i)
		}
		for _, n := range path {
			if n < 0 || int(n) >= g.nodes() {
				t.Fatalf("%s: connection %d leaves the region", m.Name, i)
			}
		}
		if g.loc(int(path[0])) != s.from || g.loc(int(path[len(path)-1])) != s.to {
			t.Fatalf("%s: connection %d runs %v to %v, want %v to %v", m.Name, i,
				g.loc(int(path[0])), g.loc(int(path[len(path)-1])), s.from, s.to)
		}
		set := used[s.src]
		if set == nil {
			set = map[edgeID]bool{}
			used[s.src] = set
		}
		for k := 0; k+1 < len(path); k++ {
			a, b := g.loc(int(path[k])), g.loc(int(path[k+1]))
			if dx, dy := b.X-a.X, b.Y-a.Y; dx*dx+dy*dy != 1 {
				t.Fatalf("%s: connection %d path not orthogonally contiguous", m.Name, i)
			}
			set[g.edgeBetween(int(path[k]), int(path[k+1]))] = true
		}
		if got := r.SinkHops[c.slot]; int(got) != len(path)-1 {
			t.Fatalf("%s: sink %d keeps %d hops, its path has %d", m.Name, c.slot, got, len(path)-1)
		}
	}
	total := 0
	for slot, s := range sinks {
		if s.src.Kind != techmap.SigConst && !routed[slot] {
			t.Fatalf("%s: sink %d not routed", m.Name, slot)
		}
		if !routed[slot] && r.SinkHops[slot] != 0 {
			t.Fatalf("%s: unrouted sink %d keeps %d hops", m.Name, slot, r.SinkHops[slot])
		}
		total += int(r.SinkHops[slot])
	}
	if total != r.TotalHops {
		t.Fatalf("%s: hop counts sum to %d, TotalHops %d", m.Name, total, r.TotalHops)
	}
	occ := make([]int, g.numEdges())
	for _, set := range used {
		for e := range set {
			occ[e]++
		}
	}
	for e, u := range occ {
		if u > tracks {
			t.Fatalf("%s: edge %d used by %d nets with capacity %d", m.Name, e, u, tracks)
		}
	}
}

func TestRouteCoversAllConnections(t *testing.T) {
	p := placed(t, netlist.Adder(8))
	r, ng, err := negotiated(p, 12)
	if err != nil {
		t.Fatal(err)
	}
	// Count expected connections: every non-const cell input + non-const output.
	want := 0
	for _, c := range p.Mapped.Cells {
		for _, in := range c.Inputs {
			if in.Kind != techmap.SigConst {
				want++
			}
		}
	}
	for _, o := range p.Mapped.Outputs {
		if o.Kind != techmap.SigConst {
			want++
		}
	}
	if r.Conns != want {
		t.Fatalf("routed %d connections, want %d", r.Conns, want)
	}
	checkRouting(t, p, r, ng, 12)
}

func TestRouteRespectsCapacity(t *testing.T) {
	p := placed(t, netlist.Multiplier(4))
	r, ng, err := negotiated(p, 6)
	if err != nil {
		t.Skipf("mul4 unroutable at 6 tracks in this placement: %v", err)
	}
	checkRouting(t, p, r, ng, 6)
}

func TestRouteFailsOnImpossibleCapacity(t *testing.T) {
	p := placed(t, netlist.Multiplier(6))
	if _, err := Route(p, 1, Options{}); err == nil {
		t.Fatal("1-track routing of mul6 should fail")
	}
}

func TestRouteInvalidTracks(t *testing.T) {
	p := placed(t, netlist.Adder(4))
	if _, err := Route(p, 0, Options{}); err == nil {
		t.Fatal("0 tracks accepted")
	}
}

func TestCriticalPathPositiveAndScales(t *testing.T) {
	p := placed(t, netlist.Multiplier(4))
	r, err := Route(p, 12, Options{})
	if err != nil {
		t.Fatal(err)
	}
	cp1 := r.CriticalPath(3*sim.Nanosecond, 1*sim.Nanosecond)
	if cp1 <= 0 {
		t.Fatalf("critical path %v", cp1)
	}
	cp2 := r.CriticalPath(6*sim.Nanosecond, 2*sim.Nanosecond)
	if cp2 != 2*cp1 {
		t.Fatalf("critical path does not scale linearly: %v vs %v", cp1, cp2)
	}
	// Deeper logic must have a longer critical path than a single LUT.
	if cp1 < sim.Time(p.Mapped.Depth)*3*sim.Nanosecond {
		t.Fatalf("critical path %v below depth*LUT %d", cp1, p.Mapped.Depth*3)
	}
}

func TestCriticalPathSequentialBounded(t *testing.T) {
	// A counter's register-to-register paths are short; the critical path
	// should be far below the whole-design-serial bound.
	p := placed(t, netlist.Counter(16))
	r, err := Route(p, 12, Options{})
	if err != nil {
		t.Fatal(err)
	}
	cp := r.CriticalPath(3*sim.Nanosecond, 1*sim.Nanosecond)
	if cp <= 0 {
		t.Fatal("zero critical path for sequential design")
	}
	serialBound := sim.Time(len(p.Mapped.Cells)) * 10 * sim.Nanosecond
	if cp > serialBound {
		t.Fatalf("critical path %v exceeds serial bound %v", cp, serialBound)
	}
}

// neighbors appends the orthogonal neighbors of node n to buf: with
// edgeBetween, the reference grid.expand is held to.
func (g grid) neighbors(n int, buf []int) []int {
	l := g.loc(n)
	if l.X > 0 {
		buf = append(buf, n-1)
	}
	if l.X < g.w-1 {
		buf = append(buf, n+1)
	}
	if l.Y > 0 {
		buf = append(buf, n-g.w)
	}
	if l.Y < g.h-1 {
		buf = append(buf, n+g.w)
	}
	return buf
}

// TestExpandMatchesNeighbors holds the arithmetic expansion to the
// coordinate-based one: same neighbors in the same order, each with the
// edge edgeBetween names, on degenerate, tiny and strip-shaped grids.
func TestExpandMatchesNeighbors(t *testing.T) {
	for _, g := range []grid{{1, 1}, {1, 9}, {9, 1}, {2, 2}, {5, 16}, {53, 16}} {
		for n := 0; n < g.nodes(); n++ {
			var want []hop
			for _, nb := range g.neighbors(n, nil) {
				want = append(want, hop{nb, g.edgeBetween(n, nb)})
			}
			var buf [4]hop
			if got := g.expand(n, &buf); !slices.Equal(got, want) {
				t.Fatalf("%dx%d node %d: expand = %v, neighbors + edgeBetween = %v", g.w, g.h, n, got, want)
			}
		}
	}
}

// swapHeap is the sift hpush and hpop replaced, kept as their reference:
// it exchanges whole items on the way up and down.
type swapHeap []pqItem

func (h *swapHeap) push(it pqItem) {
	*h = append(*h, it)
	s := *h
	for i := len(s) - 1; i > 0; {
		parent := (i - 1) / 2
		if s[parent].cost <= s[i].cost {
			break
		}
		s[parent], s[i] = s[i], s[parent]
		i = parent
	}
}

func (h *swapHeap) pop() pqItem {
	s := *h
	top := s[0]
	last := len(s) - 1
	s[0] = s[last]
	s = s[:last]
	*h = s
	for i := 0; ; {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < last && s[l].cost < s[min].cost {
			min = l
		}
		if r < last && s[r].cost < s[min].cost {
			min = r
		}
		if min == i {
			break
		}
		s[i], s[min] = s[min], s[i]
		i = min
	}
	return top
}

// TestHeapMatchesSwapSift checks the heap's contract — not just the pop
// order but the whole array after every operation — on random push/pop
// runs drawn from a handful of keys, so ties are the common case.
func TestHeapMatchesSwapSift(t *testing.T) {
	src := rng.New(3)
	for run := 0; run < 200; run++ {
		s := &routeScratch{}
		var ref swapHeap
		keys := 1 + src.Intn(6)
		for step := 0; step < 300; step++ {
			if len(ref) == 0 || src.Intn(5) < 3 {
				it := pqItem{node: step, cost: float64(src.Intn(keys))}
				s.hpush(it)
				ref.push(it)
			} else if got, want := s.hpop(), ref.pop(); got != want {
				t.Fatalf("run %d step %d: popped %+v, swap-based heap %+v", run, step, got, want)
			}
			if !slices.Equal(s.heap, []pqItem(ref)) {
				t.Fatalf("run %d step %d: heap %v, swap-based heap %v", run, step, s.heap, []pqItem(ref))
			}
		}
	}
}

// fullSearch is the search shortestPath replaced, kept as its reference:
// it runs until it pops to, and tests settled neighbors before relaxing.
func (s *routeScratch) fullSearch(from, to int) []int {
	s.path = s.path[:0]
	if from == to {
		s.path = append(s.path, from)
		return s.path
	}
	s.nextGen()
	s.heap = s.heap[:0]
	s.dist[from] = 0
	s.prev[from] = -1
	s.seenGen[from] = s.gen
	s.hpush(pqItem{node: from})
	var hops [4]hop
	for len(s.heap) > 0 {
		it := s.hpop()
		n := it.node
		if s.doneGen[n] == s.gen {
			continue
		}
		s.doneGen[n] = s.gen
		if n == to {
			break
		}
		for _, nb := range s.g.expand(n, &hops) {
			if s.doneGen[nb.node] == s.gen {
				continue
			}
			c := it.cost + s.cost(nb.edge)
			if s.seenGen[nb.node] != s.gen || c < s.dist[nb.node] {
				s.seenGen[nb.node] = s.gen
				s.dist[nb.node] = c
				s.prev[nb.node] = n
				s.hpush(pqItem{node: nb.node, cost: c})
			}
		}
	}
	if s.doneGen[to] != s.gen {
		panic("route: grid is connected; unreachable node")
	}
	for n := to; n != -1; n = s.prev[n] {
		s.path = append(s.path, n)
		if n == from {
			break
		}
	}
	slices.Reverse(s.path)
	return s.path
}

// randomCongestion fills s with a congestion state drawn from src. Most
// draws price edges from a few integer values, so equal-cost paths are the
// common case; the rest draw real history and a presFac up to the 40th
// iteration's. Random edges are already carried by the net, the edges
// around the sink among them.
func randomCongestion(s *routeScratch, src *rng.Source, to int) {
	s.presFac = 0.5
	levels, real := 1+src.Intn(4), src.Intn(4) == 0
	if real {
		s.presFac *= math.Pow(1.6, float64(src.Intn(40)))
	}
	for e := range s.hist {
		s.hist[e] = float64(src.Intn(levels))
		if real {
			s.hist[e] = src.Float64() * 100
		}
		s.occ[e] = 0
		if src.Intn(4) == 0 {
			s.occ[e] = src.Intn(s.tracks + 3)
		}
		s.inNet[e] = src.Intn(6) == 0
	}
	var hops [4]hop
	for _, nb := range s.g.expand(to, &hops) {
		if src.Intn(2) == 0 {
			s.inNet[nb.edge] = true
		}
	}
}

// TestShortestPathMatchesFullSearch holds the search to the one it
// replaced: the same path, in no more pops, on random grids from 1×1 to
// 40×20 under random congestion. Both run on one scratch, so they pop
// through the same heap.
func TestShortestPathMatchesFullSearch(t *testing.T) {
	src := rng.New(7)
	fewer := 0
	for trial := 0; trial < 2000; trial++ {
		g := grid{w: 1 + src.Intn(40), h: 1 + src.Intn(20)}
		s := newRouteScratch(g, 1+src.Intn(3))
		from, to := src.Intn(g.nodes()), src.Intn(g.nodes())
		randomCongestion(s, src, to)
		pops := s.pops
		want := slices.Clone(s.fullSearch(from, to))
		wantPops := s.pops - pops
		pops = s.pops
		got := s.shortestPath(from, to)
		gotPops := s.pops - pops
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d, %dx%d, %d to %d: path %v, full search %v", trial, g.w, g.h, from, to, got, want)
		}
		if gotPops > wantPops {
			t.Fatalf("trial %d, %dx%d, %d to %d: %d pops, full search %d", trial, g.w, g.h, from, to, gotPops, wantPops)
		}
		if gotPops < wantPops {
			fewer++
		}
	}
	if fewer == 0 {
		t.Fatal("the stop rule never saved a pop")
	}
}

// TestCostPositiveAndFinite checks shortestPath's precondition over the
// congestion states a negotiation can reach: every edge costs more than
// zero and less than infinity, and so does the dearest path on the
// largest grid. An edge's occupancy is at most the number of nets, its
// history grows by at most that much an iteration, and presFac is
// 0.5·1.6^(iteration-1); the bounds below are far beyond any registry
// circuit's.
func TestCostPositiveAndFinite(t *testing.T) {
	const nets, iterations, nodes = 1 << 20, 40, 1 << 16
	src := rng.New(11)
	s := newRouteScratch(grid{w: 2, h: 1}, 1)
	for trial := 0; trial < 20000; trial++ {
		s.tracks = 1 + src.Intn(64)
		s.presFac = 0.5 * math.Pow(1.6, float64(src.Intn(iterations)))
		switch trial % 3 {
		case 0: // small counts
			s.occ[0] = src.Intn(2 * s.tracks)
			s.hist[0] = float64(src.Intn(8))
		case 1: // anywhere in range
			s.occ[0] = src.Intn(nets + 1)
			s.hist[0] = float64(src.Intn(iterations*nets + 1))
		default: // the extremes
			s.occ[0] = nets
			s.hist[0] = iterations * nets
			s.presFac = 0.5 * math.Pow(1.6, iterations-1)
		}
		s.inNet[0] = src.Intn(5) == 0
		c := s.cost(0)
		if !(c > 0) || math.IsInf(c*nodes, 0) {
			t.Fatalf("occ %d, hist %g, presFac %g, tracks %d, in net %v: cost %g",
				s.occ[0], s.hist[0], s.presFac, s.tracks, s.inNet[0], c)
		}
	}
}

func TestGridEdgeIndexing(t *testing.T) {
	g := grid{w: 4, h: 3}
	if g.numEdges() != (4-1)*3+4*(3-1) {
		t.Fatalf("numEdges = %d", g.numEdges())
	}
	seen := map[edgeID]bool{}
	for n := 0; n < g.nodes(); n++ {
		var buf [4]int
		for _, nb := range g.neighbors(n, buf[:0]) {
			e := g.edgeBetween(n, nb)
			if e < 0 || int(e) >= g.numEdges() {
				t.Fatalf("edge id %d out of range", e)
			}
			if g.edgeBetween(nb, n) != e {
				t.Fatal("edge id not symmetric")
			}
			seen[e] = true
		}
	}
	if len(seen) != g.numEdges() {
		t.Fatalf("enumerated %d distinct edges, want %d", len(seen), g.numEdges())
	}
}

// An idle scratch (no occupancy, so nothing over capacity) prices edge e at
// 1 + hist[e]: the tests below write their cost fields into hist.

func TestShortestPathStraightLine(t *testing.T) {
	g := grid{w: 5, h: 5}
	s := newRouteScratch(g, 1)
	path := s.shortestPath(g.node(place.Loc{X: 0, Y: 2}), g.node(place.Loc{X: 4, Y: 2}))
	if len(path) != 5 {
		t.Fatalf("path length %d, want 5", len(path))
	}
}

func TestShortestPathSameNode(t *testing.T) {
	g := grid{w: 3, h: 3}
	s := newRouteScratch(g, 1)
	path := s.shortestPath(4, 4)
	if len(path) != 1 || path[0] != 4 {
		t.Fatalf("self path = %v", path)
	}
}

func TestShortestPathAvoidsExpensiveEdges(t *testing.T) {
	// Make the direct row expensive; the path should detour.
	g := grid{w: 3, h: 2}
	direct := g.edgeBetween(g.node(place.Loc{X: 0, Y: 0}), g.node(place.Loc{X: 1, Y: 0}))
	s := newRouteScratch(g, 1)
	s.hist[direct] = 99
	path := s.shortestPath(g.node(place.Loc{X: 0, Y: 0}), g.node(place.Loc{X: 2, Y: 0}))
	if len(path) != 5 { // detour via row 1
		t.Fatalf("expected detour of 4 hops, got path %v", path)
	}
}

// TestShortestPathScratchReuse checks that a reused scratch returns the
// same paths as a fresh one: generation stamping must fully invalidate
// earlier searches, including ones over a different cost field.
func TestShortestPathScratchReuse(t *testing.T) {
	g := grid{w: 7, h: 5}
	reused := newRouteScratch(g, 1)
	src := rng.New(42)
	for trial := 0; trial < 50; trial++ {
		for i := range reused.hist {
			reused.hist[i] = src.Float64() - 0.9
		}
		from := src.Intn(g.nodes())
		to := src.Intn(g.nodes())
		got := reused.shortestPath(from, to)
		fresh := newRouteScratch(g, 1)
		copy(fresh.hist, reused.hist)
		want := fresh.shortestPath(from, to)
		if len(got) != len(want) {
			t.Fatalf("trial %d: path length %d != fresh %d", trial, len(got), len(want))
		}
		for k := range got {
			if got[k] != want[k] {
				t.Fatalf("trial %d: path diverges at hop %d: %v vs %v", trial, k, got, want)
			}
		}
	}
}

// BenchmarkRouteShortestPath locks in the allocation win: after warmup a
// search must not allocate (the scratch owns every buffer).
func BenchmarkRouteShortestPath(b *testing.B) {
	g := grid{w: 32, h: 16}
	s := newRouteScratch(g, 1)
	for e := range s.hist {
		s.hist[e] = float64(e%7) * 0.25
	}
	from, to := 0, g.nodes()-1
	s.shortestPath(from, to) // warm the scratch buffers
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.shortestPath(from, to)
	}
}

// BenchmarkRouteRegistry routes every library circuit as the 16-row strip
// compile.CompileStrip settles on: the tightest one that holds the cells,
// a column wider per failed route. div16 runs apart: it is three quarters
// of the pass. Heap pops per op, the router's exact work, print beside the
// time.
func BenchmarkRouteRegistry(b *testing.B) {
	const rows, tracks = 16, 12
	reg := netlist.Registry()
	names := make([]string, 0, len(reg))
	for name := range reg {
		names = append(names, name)
	}
	sort.Strings(names)
	var rest, div16 []*place.Placement
	for _, name := range names {
		m, err := techmap.Map(netlist.Optimize(reg[name]()))
		if err != nil {
			b.Fatal(err)
		}
		cells := m.NumCells()
		var p *place.Placement
		for w := max((cells+cells/8+rows-1)/rows, 1); ; w++ {
			if p, err = place.Place(m, w, rows, place.Options{Seed: 1}); err != nil {
				b.Fatal(err)
			}
			if _, err := Route(p, tracks, Options{}); err == nil {
				break
			}
		}
		if name == "div16" {
			div16 = append(div16, p)
		} else {
			rest = append(rest, p)
		}
	}
	for _, set := range []struct {
		name    string
		designs []*place.Placement
	}{{"rest", rest}, {"div16", div16}} {
		b.Run(set.name, func(b *testing.B) {
			b.ReportAllocs()
			pops := 0
			for i := 0; i < b.N; i++ {
				for _, p := range set.designs {
					r, err := Route(p, tracks, Options{})
					if err != nil {
						b.Fatal(err)
					}
					pops += r.Pops
				}
			}
			b.ReportMetric(float64(pops)/float64(b.N), "pops/op")
		})
	}
}

// TestRouteSetupAllocBudget pins Route's set-up cost: connections as
// fixed-size records, nets in CSR and one arena of working paths, so a
// call allocates a fixed handful of arrays (it read 285 objects on alu8
// when every net and every path was its own slice) — and the count does
// not follow the connection count: mul8 has nine times alu8's
// connections and may differ only by amortized growth.
func TestRouteSetupAllocBudget(t *testing.T) {
	allocs := func(name string) (float64, int) {
		p := placed(t, netlist.MustLookup(name))
		r, err := Route(p, 12, Options{})
		if err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(10, func() { Route(p, 12, Options{}) }), r.Conns
	}
	small, smallConns := allocs("alu8")
	if small > 40 {
		t.Errorf("Route(alu8) allocates %.0f objects, budget 40", small)
	}
	big, bigConns := allocs("mul8")
	if bigConns < 5*smallConns {
		t.Fatalf("mul8 has %d connections, alu8 %d: not the contrast this test wants", bigConns, smallConns)
	}
	if big > small+8 {
		t.Errorf("Route allocations follow the connection count: alu8 %.0f (%d conns), mul8 %.0f (%d conns)",
			small, smallConns, big, bigConns)
	}
}

// sameRouting fails t unless got and want report the same routing of one
// placement.
func sameRouting(t *testing.T, when string, got, want *Result) {
	t.Helper()
	if got.P != want.P || got.Conns != want.Conns || got.Tracks != want.Tracks || got.MaxUse != want.MaxUse ||
		got.Iterations != want.Iterations || got.TotalHops != want.TotalHops || got.Pops != want.Pops ||
		!slices.Equal(got.SinkHops, want.SinkHops) {
		t.Errorf("%s: routing differs from a new Router's", when)
	}
	if g, w := got.CriticalPath(3, 1), want.CriticalPath(3, 1); g != w {
		t.Errorf("%s: critical path %v, on a new Router %v", when, g, w)
	}
}

// TestRouterResultOwnership holds a Router to its contract: each call
// overwrites the one Result the first call made, and what it leaves there
// is what a new Router returns, whichever design ran before. Package-level
// calls share nothing: a result outlives any later call.
func TestRouterResultOwnership(t *testing.T) {
	var designs []*place.Placement
	for _, name := range []string{"mul8", "alu8", "counter8", "mul8"} {
		designs = append(designs, placed(t, netlist.MustLookup(name)))
	}
	route := func(r *Router, p *place.Placement) *Result {
		t.Helper()
		res, err := r.Route(p, 12, Options{})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	var r Router
	first := route(&r, designs[0])
	first.CriticalPath(3, 1) // grows the critical path's arrays too
	for _, p := range designs[1:] {
		got := route(&r, p)
		if got != first {
			t.Fatalf("%s: a second call on one Router returned a new Result", p.Mapped.Name)
		}
		sameRouting(t, p.Mapped.Name, got, route(new(Router), p))
	}

	a, err := Route(designs[1], 12, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if b, err := Route(designs[0], 12, Options{}); err != nil || b == a {
		t.Fatalf("two package-level calls returned one Result (err %v)", err)
	}
	sameRouting(t, "a package-level result after a later call", a, route(new(Router), designs[1]))
}

// TestConstantSinkReadsZeroOnReuse routes a one-cell design whose output
// port lies two hops from the cell, then on the same Router the design
// with that output tied to a constant: the constant's sink is not routed,
// and its hop count reads 0, not the 2 the first call left there.
func TestConstantSinkReadsZeroOnReuse(t *testing.T) {
	design := func(out techmap.Signal) *place.Placement {
		m := &techmap.Mapped{
			Name:      "wire",
			NumInputs: 1,
			Cells:     []techmap.Cell{{Inputs: []techmap.Signal{{Kind: techmap.SigInput}}}},
			Outputs:   []techmap.Signal{out},
		}
		// One cell is not annealed: it sits at (0, 0), its input port
		// on the left edge and its output port on the right.
		p, err := place.Place(m, 3, 1, place.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	var r Router
	wired, err := r.Route(design(techmap.Signal{Kind: techmap.SigCell}), 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(wired.SinkHops, []int32{0, 2}) {
		t.Fatalf("wired design: sink hops %v, want [0 2]", wired.SinkHops)
	}
	tied, err := r.Route(design(techmap.Signal{Kind: techmap.SigConst, Const: true}), 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(tied.SinkHops, []int32{0, 0}) || tied.TotalHops != 0 {
		t.Fatalf("tied design: sink hops %v, total %d, want [0 0] and 0", tied.SinkHops, tied.TotalHops)
	}
}

// criticalPathRecursive is the memoized recursion CriticalPath replaced,
// kept as its reference: a cell's arrival follows its unregistered inputs
// back, in whatever order cells come.
func criticalPathRecursive(r *Result, lutDelay, hopDelay sim.Time) sim.Time {
	m := r.P.Mapped
	pinAt := make([]int32, len(m.Cells)+1)
	for ci := range m.Cells {
		pinAt[ci+1] = pinAt[ci] + int32(len(m.Cells[ci].Inputs))
	}
	ports := int(pinAt[len(m.Cells)])
	hops := r.SinkHops
	arrival := make([]sim.Time, len(m.Cells))
	state := make([]uint8, len(m.Cells)) // 0 unvisited, 1 visiting, 2 done
	var arrive func(ci int) sim.Time
	inputArrival := func(ci int) sim.Time {
		worst := sim.Time(0)
		pins := hops[pinAt[ci]:pinAt[ci+1]]
		for k, in := range m.Cells[ci].Inputs {
			var src sim.Time
			if in.Kind == techmap.SigCell && !m.Cells[in.Cell].UseFF {
				src = arrive(int(in.Cell))
			}
			worst = max(worst, src+sim.Time(pins[k])*hopDelay)
		}
		return worst
	}
	arrive = func(ci int) sim.Time {
		if state[ci] == 2 {
			return arrival[ci]
		}
		if state[ci] == 1 {
			return 0 // cycles only via FFs; guarded by techmap validation
		}
		state[ci] = 1
		arrival[ci] = inputArrival(ci) + lutDelay
		state[ci] = 2
		return arrival[ci]
	}
	crit := sim.Time(0)
	for ci := range m.Cells {
		crit = max(crit, inputArrival(ci)+lutDelay)
	}
	for oi, sig := range m.Outputs {
		var src sim.Time
		if sig.Kind == techmap.SigCell && !m.Cells[sig.Cell].UseFF {
			src = arrive(int(sig.Cell))
		}
		crit = max(crit, src+sim.Time(hops[ports+oi])*hopDelay)
	}
	return crit
}

// sameCriticalPath fails t unless r's critical path is the recursion's at
// two delay ratios, one where logic dominates and one where wire does.
func sameCriticalPath(t *testing.T, name string, r *Result) {
	t.Helper()
	for _, d := range [][2]sim.Time{{3, 1}, {1, 5}} {
		if got, want := r.CriticalPath(d[0], d[1]), criticalPathRecursive(r, d[0], d[1]); got != want {
			t.Fatalf("%s: critical path %v at delays %v, the recursion finds %v", name, got, d, want)
		}
	}
}

// TestCriticalPathMatchesRecursion holds the two forward passes to the
// recursion they replaced: every library circuit routed in the tightest
// strip of 16 and of 24 rows, as compile.CompileStrip first tries them,
// then random designs with flip-flops.
func TestCriticalPathMatchesRecursion(t *testing.T) {
	const tracks = 12
	reg := netlist.Registry()
	names := make([]string, 0, len(reg))
	for name := range reg {
		names = append(names, name)
	}
	sort.Strings(names)
	var (
		mp techmap.Mapper
		pl place.Placer
		rt Router
	)
	for _, rows := range []int{16, 24} {
		for _, name := range names {
			m, err := mp.Map(netlist.Optimize(reg[name]()))
			if err != nil {
				t.Fatal(err)
			}
			cells := m.NumCells()
			for w := max((cells+cells/8+rows-1)/rows, 1); ; w++ {
				p, err := pl.Place(m, w, rows, place.Options{Seed: 1})
				if err != nil {
					t.Fatal(err)
				}
				if r, err := rt.Route(p, tracks, Options{}); err == nil {
					sameCriticalPath(t, fmt.Sprintf("%s in %dx%d", name, w, rows), r)
					break
				}
			}
		}
	}
	src, routed := rng.New(49), 0
	for i := 0; i < 100; i++ {
		nl := netlist.Random(src, netlist.RandomConfig{
			Inputs:  src.Intn(8) + 1,
			Outputs: src.Intn(6) + 1,
			Gates:   src.Intn(60) + 5,
			DFFProb: 0.05 + 0.4*src.Float64(),
		})
		m, err := mp.Map(nl)
		if err != nil {
			t.Fatal(err)
		}
		w, h := place.Shape(m.NumCells())
		p, err := pl.Place(m, w, h, place.Options{Seed: uint64(i)})
		if err != nil {
			t.Fatal(err)
		}
		if r, err := rt.Route(p, tracks, Options{}); err == nil {
			sameCriticalPath(t, fmt.Sprintf("random %d", i), r)
			routed++
		}
	}
	if routed < 90 {
		t.Fatalf("only %d of 100 random designs routed", routed)
	}
}
