package place

import (
	"slices"
	"sort"
	"testing"

	"repro/internal/netlist"
	"repro/internal/rng"
	"repro/internal/techmap"
)

func mustMap(t *testing.T, nl *netlist.Netlist) *techmap.Mapped {
	t.Helper()
	m, err := techmap.Map(nl)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestShape(t *testing.T) {
	cases := []struct{ cells, minArea int }{
		{0, 1}, {1, 1}, {10, 10}, {100, 100}, {576, 576},
	}
	for _, c := range cases {
		w, h := Shape(c.cells)
		if w*h < c.minArea {
			t.Fatalf("Shape(%d) = %dx%d too small", c.cells, w, h)
		}
		if c.cells > 4 && w*h > 2*c.cells+4 {
			t.Fatalf("Shape(%d) = %dx%d wastes too much", c.cells, w, h)
		}
	}
}

func TestPlaceLegal(t *testing.T) {
	for _, nl := range []*netlist.Netlist{
		netlist.Adder(8), netlist.Multiplier(4), netlist.Counter(8), netlist.ALU(8),
	} {
		m := mustMap(t, nl)
		w, h := Shape(m.NumCells())
		p, err := Place(m, w, h, Options{Seed: 1})
		if err != nil {
			t.Fatalf("%s: %v", nl.Name, err)
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("%s: %v", nl.Name, err)
		}
		if len(p.InPorts) != m.NumInputs || len(p.OutPorts) != len(m.Outputs) {
			t.Fatalf("%s: port counts wrong", nl.Name)
		}
	}
}

func TestPlaceTooSmall(t *testing.T) {
	m := mustMap(t, netlist.Adder(8))
	if _, err := Place(m, 2, 2, Options{}); err == nil {
		t.Fatal("placement into too-small region accepted")
	}
}

func TestPlaceDeterministic(t *testing.T) {
	m := mustMap(t, netlist.Adder(16))
	w, h := Shape(m.NumCells())
	a, err := Place(m, w, h, Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Place(m, w, h, Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Cells {
		if a.Cells[i] != b.Cells[i] {
			t.Fatalf("cell %d placed differently across identical runs", i)
		}
	}
}

func TestAnnealingImprovesOverScanOrder(t *testing.T) {
	m := mustMap(t, netlist.Multiplier(6))
	w, h := Shape(m.NumCells())
	// Scan-order-only baseline: the placer's seed, before any annealing.
	base := newPlacer(m, w, h).placement().TotalWirelength()

	annealed, err := Place(m, w, h, Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if annealed.Wirelength > base {
		t.Fatalf("annealed WL %d worse than scan-order %d", annealed.Wirelength, base)
	}
}

// newPlacer is a Placer set up for m in a w x h region, not yet annealed.
func newPlacer(m *techmap.Mapped, w, h int) *Placer {
	p := new(Placer)
	p.reset(m, w, h)
	return p
}

// annealAt is Place at the given annealing effort.
func annealAt(m *techmap.Mapped, w, h int, seed uint64, effort int) *Placement {
	p := newPlacer(m, w, h)
	p.anneal(effort, rng.New(seed))
	return p.placement()
}

func TestHigherEffortNotWorse(t *testing.T) {
	m := mustMap(t, netlist.ALU(8))
	w, h := Shape(m.NumCells())
	low, high := annealAt(m, w, h, 5, 1), annealAt(m, w, h, 5, 4)
	// Annealing is stochastic; allow a small regression margin.
	if float64(high.Wirelength) > 1.15*float64(low.Wirelength) {
		t.Fatalf("effort 4 WL %d much worse than effort 1 WL %d", high.Wirelength, low.Wirelength)
	}
}

func TestZeroCellDesign(t *testing.T) {
	b := netlist.NewBuilder("wire")
	b.Output("y", b.Input("a"))
	m := mustMap(t, b.MustBuild())
	p, err := Place(m, 1, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestWirelengthConsistent(t *testing.T) {
	m := mustMap(t, netlist.Adder(8))
	w, h := Shape(m.NumCells())
	p, err := Place(m, w, h, Options{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if p.Wirelength != p.TotalWirelength() {
		t.Fatalf("stored WL %d != recomputed %d", p.Wirelength, p.TotalWirelength())
	}
}

func TestValidateCatchesOverlap(t *testing.T) {
	m := mustMap(t, netlist.Adder(4))
	w, h := Shape(m.NumCells())
	p, err := Place(m, w, h, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	p.Cells[1] = p.Cells[0]
	if err := p.Validate(); err == nil {
		t.Fatal("overlapping cells not caught")
	}
}

func TestValidateCatchesOutOfRegion(t *testing.T) {
	m := mustMap(t, netlist.Adder(4))
	w, h := Shape(m.NumCells())
	p, err := Place(m, w, h, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	p.Cells[0] = Loc{X: w, Y: 0}
	if err := p.Validate(); err == nil {
		t.Fatal("out-of-region cell not caught")
	}
}

// randomMapped builds a structurally arbitrary mapped design: cells read
// any mix of cells (themselves included), inputs and constants, with
// repeats, and some cells and inputs drive nothing.
func randomMapped(src *rng.Source) *techmap.Mapped {
	nCells, nIn, nOut := 2+src.Intn(40), 1+src.Intn(6), 1+src.Intn(6)
	signal := func() techmap.Signal {
		switch src.Intn(5) {
		case 0:
			return techmap.Signal{Kind: techmap.SigConst, Const: src.Bool()}
		case 1:
			return techmap.Signal{Kind: techmap.SigInput, Input: src.Intn(nIn)}
		}
		return techmap.Signal{Kind: techmap.SigCell, Cell: techmap.CellID(src.Intn(nCells))}
	}
	m := &techmap.Mapped{Name: "random", NumInputs: nIn}
	for c := 0; c < nCells; c++ {
		cell := techmap.Cell{ID: techmap.CellID(c)}
		for k := src.Intn(5); k > 0; k-- {
			cell.Inputs = append(cell.Inputs, signal())
		}
		m.Cells = append(m.Cells, cell)
	}
	for o := 0; o < nOut; o++ {
		m.Outputs = append(m.Outputs, signal())
	}
	return m
}

// bruteCost is the reference for delta: it finds the nets touching the
// given cells by scanning the whole design per driving signal, and sums
// the bounding-box half perimeter of each once.
func bruteCost(m *techmap.Mapped, pos []Loc, cells ...int) int {
	n := m.NumCells()
	sourceOf := func(sig techmap.Signal) int {
		switch sig.Kind {
		case techmap.SigCell:
			return int(sig.Cell)
		case techmap.SigInput:
			return n + sig.Input
		}
		return -1 // constants drive no net
	}
	touched := map[int]bool{}
	for _, c := range cells {
		if c < 0 {
			continue
		}
		touched[c] = true
		for _, in := range m.Cells[c].Inputs {
			touched[sourceOf(in)] = true
		}
	}
	delete(touched, -1)
	total := 0
	for source := range touched {
		pins := []Loc{pos[source]}
		for ci := range m.Cells {
			for _, in := range m.Cells[ci].Inputs {
				if sourceOf(in) == source {
					pins = append(pins, pos[ci])
				}
			}
		}
		for oi, sig := range m.Outputs {
			if sourceOf(sig) == source {
				pins = append(pins, pos[n+m.NumInputs+oi])
			}
		}
		if len(pins) == 1 {
			continue // nothing reads it: no net
		}
		minX, maxX, minY, maxY := pins[0].X, pins[0].X, pins[0].Y, pins[0].Y
		for _, l := range pins[1:] {
			minX, maxX = min(minX, l.X), max(maxX, l.X)
			minY, maxY = min(minY, l.Y), max(maxY, l.Y)
		}
		total += (maxX - minX) + (maxY - minY)
	}
	return total
}

// checkCommitted holds every net's committed cost to a fresh hpwl and
// returns their sum.
func checkCommitted(t *testing.T, p *Placer, when string) int {
	t.Helper()
	sum := 0
	for nid := range p.nets {
		if got, want := int(p.nets[nid].cost), p.hpwl(nid); got != want {
			t.Fatalf("%s: net %d committed at %d, hpwl %d", when, nid, got, want)
		}
		sum += int(p.nets[nid].cost)
	}
	return sum
}

// TestDeltaMatchesBruteForce drives delta the way anneal does — write the
// move, evaluate, then commit pending or put the cells back — and holds
// each evaluation to the brute-force cost after minus before.
func TestDeltaMatchesBruteForce(t *testing.T) {
	src := rng.New(7)
	var swapsSharingNet, twiceOnNet, toFreeSite int
	for design := 0; design < 60; design++ {
		m := randomMapped(src)
		w, h := Shape(m.NumCells())
		p := newPlacer(m, w, h)
		p.commitAll()
		netsOf := func(c int) []int { return p.cellNets[p.cellNetStart[c]:p.cellNetStart[c+1]] }
		for move := 0; move < 50; move++ {
			a, b := src.Intn(p.nCells), src.Intn(p.nCells+1)-1
			if a == b {
				continue // anneal never evaluates a cell against itself
			}
			for i, nid := range netsOf(a) {
				if slices.Contains(netsOf(a)[:i], nid) {
					twiceOnNet++
				}
				if b >= 0 && slices.Contains(netsOf(b), nid) {
					swapsSharingNet++
				}
			}
			before := bruteCost(m, p.pos, a, b)
			fromA := p.pos[a]
			if b >= 0 {
				p.pos[a], p.pos[b] = p.pos[b], fromA
			} else {
				// Overlaps are fine here: cost depends on positions only.
				p.pos[a] = Loc{X: src.Intn(w), Y: src.Intn(h)}
				toFreeSite++
			}
			if got, want := p.delta(a, b), bruteCost(m, p.pos, a, b)-before; got != want {
				t.Fatalf("design %d move %d: delta(%d, %d) = %d, brute force %d", design, move, a, b, got, want)
			}
			// pending lists every touched net once, at its cost after the move.
			want := slices.Clone(netsOf(a))
			if b >= 0 {
				want = append(want, netsOf(b)...)
			}
			slices.Sort(want)
			want = slices.Compact(want)
			if len(p.pending) != len(want) {
				t.Fatalf("design %d move %d: %d nets pending, the cells touch %d", design, move, len(p.pending), len(want))
			}
			for _, nc := range p.pending {
				if !slices.Contains(want, int(nc.net)) || int(nc.cost) != p.hpwl(int(nc.net)) {
					t.Fatalf("design %d move %d: pending %+v, hpwl %d, touched nets %v", design, move, nc, p.hpwl(int(nc.net)), want)
				}
			}
			if src.Bool() { // accept
				for _, nc := range p.pending {
					p.nets[nc.net].cost = nc.cost
				}
			} else if b >= 0 {
				p.pos[a], p.pos[b] = fromA, p.pos[a]
			} else {
				p.pos[a] = fromA
			}
			checkCommitted(t, p, "after a decided move")
		}
	}
	if swapsSharingNet == 0 || twiceOnNet == 0 || toFreeSite == 0 {
		t.Fatalf("moves missed a case: %d swaps of cells sharing a net, %d cells twice on a net, %d moves to a free site",
			swapsSharingNet, twiceOnNet, toFreeSite)
	}
}

// TestAnnealKeepsCommittedCosts checks the invariant delta rests on: after
// a whole annealing run every net's committed cost is its wirelength, so
// their sum is the placement's, and a move that is evaluated and put back
// leaves them alone.
func TestAnnealKeepsCommittedCosts(t *testing.T) {
	src := rng.New(11)
	for design := 0; design < 20; design++ {
		m := randomMapped(src)
		w, h := Shape(m.NumCells())
		p := newPlacer(m, w, h)
		if p.numNets() == 0 {
			continue
		}
		p.anneal(1, rng.New(uint64(design)))
		if sum, wl := checkCommitted(t, p, "after anneal"), p.placement().Wirelength; sum != wl {
			t.Fatalf("design %d: committed costs sum to %d, placement wirelength %d", design, sum, wl)
		}
		committed := slices.Clone(p.nets)
		a, b := 0, p.nCells-1
		p.pos[a], p.pos[b] = p.pos[b], p.pos[a]
		p.delta(a, b)
		p.pos[a], p.pos[b] = p.pos[b], p.pos[a]
		for nid := range p.nets {
			if p.nets[nid].cost != committed[nid].cost {
				t.Fatalf("design %d: evaluating a move changed net %d's committed cost %d to %d",
					design, nid, committed[nid].cost, p.nets[nid].cost)
			}
		}
	}
}

// TestPlaceLoopAllocatesNothing holds the annealing loop to zero
// allocations per move — four times the moves allocate exactly what one
// times do — and the set-up to a fixed handful of arrays.
func TestPlaceLoopAllocatesNothing(t *testing.T) {
	m := mustMap(t, netlist.ALU(8))
	w, h := Shape(m.NumCells())
	allocs := func(effort int) float64 {
		return testing.AllocsPerRun(5, func() { annealAt(m, w, h, 5, effort) })
	}
	low, high := allocs(1), allocs(4)
	if low != high {
		t.Fatalf("Place allocates %v objects at effort 1 but %v at effort 4: the loop allocates", low, high)
	}
	const budget = 16
	if low > budget && !raceEnabled { // the race detector defeats escape analysis
		t.Fatalf("Place allocates %v objects for alu8, budget %d", low, budget)
	}
}

// BenchmarkPlaceRegistry places every library circuit into the tightest
// 16-row strip that holds it — the first shape compile.CompileStrip tries.
// div16 runs apart: it is three quarters of the pass.
func BenchmarkPlaceRegistry(b *testing.B) {
	const rows = 16
	reg := netlist.Registry()
	names := make([]string, 0, len(reg))
	for name := range reg {
		names = append(names, name)
	}
	sort.Strings(names)
	var rest, div16 []*techmap.Mapped
	for _, name := range names {
		m, err := techmap.Map(netlist.Optimize(reg[name]()))
		if err != nil {
			b.Fatal(err)
		}
		if name == "div16" {
			div16 = append(div16, m)
		} else {
			rest = append(rest, m)
		}
	}
	for _, set := range []struct {
		name    string
		designs []*techmap.Mapped
	}{{"rest", rest}, {"div16", div16}} {
		b.Run(set.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, m := range set.designs {
					cells := m.NumCells()
					w := max((cells+cells/8+rows-1)/rows, 1)
					if _, err := Place(m, w, rows, Options{Seed: 1}); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}
