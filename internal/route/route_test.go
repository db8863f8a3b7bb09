package route

import (
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
	if _, err := Route(p, 1, Options{MaxIterations: 5}); err == nil {
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
// of the pass.
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
			for i := 0; i < b.N; i++ {
				for _, p := range set.designs {
					if _, err := Route(p, tracks, Options{}); err != nil {
						b.Fatal(err)
					}
				}
			}
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

// TestNetTableMatchesGrouping checks the CSR net table against the
// grouping it replaced: a map from net key to connection indices plus the
// order keys first appear in.
func TestNetTableMatchesGrouping(t *testing.T) {
	for _, name := range []string{"adder8", "alu8", "counter8", "mul4"} {
		p := placed(t, netlist.MustLookup(name))
		conns, _ := connections(p, grid{w: p.W, h: p.H}, nil)
		byNet := map[int32][]int32{}
		var order []int32
		for i, c := range conns {
			if _, ok := byNet[c.src]; !ok {
				order = append(order, c.src)
			}
			byNet[c.src] = append(byNet[c.src], int32(i))
		}
		var nets netTable
		nets.build(len(p.Mapped.Cells)+p.Mapped.NumInputs, conns)
		if nets.numNets() != len(order) {
			t.Fatalf("%s: %d nets, want %d", name, nets.numNets(), len(order))
		}
		for n, src := range order {
			got := nets.conns[nets.start[n]:nets.start[n+1]]
			if !slices.Equal(got, byNet[src]) {
				t.Fatalf("%s: net %d = %v, want %v", name, n, got, byNet[src])
			}
		}
	}
}
