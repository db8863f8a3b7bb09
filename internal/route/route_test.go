package route

import (
	"slices"
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

func TestRouteCoversAllConnections(t *testing.T) {
	p := placed(t, netlist.Adder(8))
	r, err := Route(p, 12, Options{})
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
	if len(r.Conns) != want {
		t.Fatalf("routed %d connections, want %d", len(r.Conns), want)
	}
	for i := range r.Conns {
		c := &r.Conns[i]
		if len(c.Path) == 0 {
			t.Fatalf("connection %d has empty path", i)
		}
		if c.Path[0] != r.srcLoc(c.Src) || c.Path[len(c.Path)-1] != r.sinkLoc(c.Sink) {
			t.Fatalf("connection %d endpoints wrong", i)
		}
		for k := 0; k+1 < len(c.Path); k++ {
			dx := c.Path[k+1].X - c.Path[k].X
			dy := c.Path[k+1].Y - c.Path[k].Y
			if dx*dx+dy*dy != 1 {
				t.Fatalf("connection %d path not orthogonally contiguous", i)
			}
		}
	}
}

func TestRouteRespectsCapacity(t *testing.T) {
	p := placed(t, netlist.Multiplier(4))
	r, err := Route(p, 6, Options{})
	if err != nil {
		t.Skipf("mul4 unroutable at 6 tracks in this placement: %v", err)
	}
	// Occupancy counts each net once per edge, however many sinks share it.
	g := grid{w: p.W, h: p.H}
	used := map[techmap.Signal]map[edgeID]bool{}
	for i := range r.Conns {
		c := &r.Conns[i]
		set := used[c.Src]
		if set == nil {
			set = map[edgeID]bool{}
			used[c.Src] = set
		}
		for k := 0; k+1 < len(c.Path); k++ {
			set[g.edgeBetween(g.node(c.Path[k]), g.node(c.Path[k+1]))] = true
		}
	}
	occ := make([]int, g.numEdges())
	for _, set := range used {
		for e := range set {
			occ[e]++
		}
	}
	for e, u := range occ {
		if u > 6 {
			t.Fatalf("edge %d used by %d nets with capacity 6", e, u)
		}
	}
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

func TestShortestPathStraightLine(t *testing.T) {
	g := grid{w: 5, h: 5}
	s := newRouteScratch(g.nodes())
	path := s.shortestPath(g, g.node(place.Loc{X: 0, Y: 2}), g.node(place.Loc{X: 4, Y: 2}),
		func(edgeID) float64 { return 1 })
	if len(path) != 5 {
		t.Fatalf("path length %d, want 5", len(path))
	}
}

func TestShortestPathSameNode(t *testing.T) {
	g := grid{w: 3, h: 3}
	s := newRouteScratch(g.nodes())
	path := s.shortestPath(g, 4, 4, func(edgeID) float64 { return 1 })
	if len(path) != 1 || path[0] != 4 {
		t.Fatalf("self path = %v", path)
	}
}

func TestShortestPathAvoidsExpensiveEdges(t *testing.T) {
	// Make the direct row expensive; the path should detour.
	g := grid{w: 3, h: 2}
	direct := g.edgeBetween(g.node(place.Loc{X: 0, Y: 0}), g.node(place.Loc{X: 1, Y: 0}))
	s := newRouteScratch(g.nodes())
	path := s.shortestPath(g, g.node(place.Loc{X: 0, Y: 0}), g.node(place.Loc{X: 2, Y: 0}),
		func(e edgeID) float64 {
			if e == direct {
				return 100
			}
			return 1
		})
	if len(path) != 5 { // detour via row 1
		t.Fatalf("expected detour of 4 hops, got path %v", path)
	}
}

// TestShortestPathScratchReuse checks that a reused scratch returns the
// same paths as a fresh one: generation stamping must fully invalidate
// earlier searches, including ones over a different cost field.
func TestShortestPathScratchReuse(t *testing.T) {
	g := grid{w: 7, h: 5}
	reused := newRouteScratch(g.nodes())
	src := rng.New(42)
	costs := make([]float64, g.numEdges())
	for trial := 0; trial < 50; trial++ {
		for i := range costs {
			costs[i] = 0.1 + src.Float64()
		}
		cost := func(e edgeID) float64 { return costs[e] }
		from := src.Intn(g.nodes())
		to := src.Intn(g.nodes())
		got := reused.shortestPath(g, from, to, cost)
		want := newRouteScratch(g.nodes()).shortestPath(g, from, to, cost)
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
	s := newRouteScratch(g.nodes())
	cost := func(e edgeID) float64 { return 1 + float64(e%7)*0.25 }
	from, to := 0, g.nodes()-1
	s.shortestPath(g, from, to, cost) // warm the scratch buffers
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.shortestPath(g, from, to, cost)
	}
}

func BenchmarkRouteAdder16(b *testing.B) {
	m, err := techmap.Map(netlist.Adder(16))
	if err != nil {
		b.Fatal(err)
	}
	w, h := place.Shape(m.NumCells())
	p, err := place.Place(m, w, h, place.Options{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Route(p, 12, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// TestRouteSetupAllocBudget pins Route's set-up cost: nets in CSR, one
// arena of working paths and one backing store of result paths, so a
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
		return testing.AllocsPerRun(10, func() { Route(p, 12, Options{}) }), len(r.Conns)
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
// grouping it replaced: a map from driving signal to connection indices
// plus the order signals first appear in.
func TestNetTableMatchesGrouping(t *testing.T) {
	for _, name := range []string{"adder8", "alu8", "counter8", "mul4"} {
		p := placed(t, netlist.MustLookup(name))
		conns := connections(p)
		byNet := map[techmap.Signal][]int32{}
		var order []techmap.Signal
		for i, c := range conns {
			if _, ok := byNet[c.Src]; !ok {
				order = append(order, c.Src)
			}
			byNet[c.Src] = append(byNet[c.Src], int32(i))
		}
		nets := buildNets(p.Mapped, conns)
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
