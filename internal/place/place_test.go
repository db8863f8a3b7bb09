package place

import (
	"fmt"
	"reflect"
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
		p.anneal(rng.New(uint64(design)))
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
// allocations per move — a Placer whose arrays have grown to a design
// places it again, every move evaluated anew, without allocating — and a
// new Placer's set-up to a fixed handful of arrays. Moves counts the
// moves evaluated: some, and at most the schedule's 160 per cell.
func TestPlaceLoopAllocatesNothing(t *testing.T) {
	m := mustMap(t, netlist.ALU(8))
	w, h := Shape(m.NumCells())
	var p Placer
	var pl *Placement
	place := func() {
		var err error
		if pl, err = p.Place(m, w, h, Options{Seed: 5}); err != nil {
			t.Fatal(err)
		}
	}
	place()
	if pl.Moves <= 0 || pl.Moves > 160*m.NumCells() {
		t.Fatalf("%d moves evaluated for %d cells", pl.Moves, m.NumCells())
	}
	if warm := testing.AllocsPerRun(5, place); warm != 0 {
		t.Fatalf("a warm Placer allocates %v objects placing alu8 again: the loop allocates", warm)
	}
	fresh := testing.AllocsPerRun(5, func() { _, _ = Place(m, w, h, Options{Seed: 5}) })
	const budget = 16
	if fresh > budget && !raceEnabled { // the race detector defeats escape analysis
		t.Fatalf("Place allocates %v objects for alu8, budget %d", fresh, budget)
	}
}

// BenchmarkPlaceRegistry places every library circuit into the tightest
// 16-row strip that holds it — the first shape compile.CompileStrip tries.
// div16 runs apart: it is three quarters of the pass. The annealing moves
// evaluated, the placer's exact work, print beside the time.
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
			moves := 0
			for i := 0; i < b.N; i++ {
				for _, m := range set.designs {
					cells := m.NumCells()
					w := max((cells+cells/8+rows-1)/rows, 1)
					p, err := Place(m, w, rows, Options{Seed: 1})
					if err != nil {
						b.Fatal(err)
					}
					moves += p.Moves
				}
			}
			b.ReportMetric(float64(moves)/float64(b.N), "moves/op")
		})
	}
}

// TotalWirelength recomputes the HPWL of the placement from scratch, the
// oracle the placer's incremental wirelength is checked against.
func (pl *Placement) TotalWirelength() int {
	pos := make([]Loc, 0, len(pl.Cells)+len(pl.InPorts)+len(pl.OutPorts))
	pos = append(append(append(pos, pl.Cells...), pl.InPorts...), pl.OutPorts...)
	p := &Placer{m: pl.Mapped, w: pl.W, h: pl.H, nCells: pl.Mapped.NumCells(), pos: pos}
	p.buildNets()
	return p.wirelength()
}

// Validate checks that the placement is legal: every cell inside the
// region, no two cells on the same location.
func (pl *Placement) Validate() error {
	seen := make(map[Loc]techmap.CellID, len(pl.Cells))
	for i, l := range pl.Cells {
		if l.X < 0 || l.X >= pl.W || l.Y < 0 || l.Y >= pl.H {
			return fmt.Errorf("place: cell %d at %v outside %dx%d", i, l, pl.W, pl.H)
		}
		if prev, dup := seen[l]; dup {
			return fmt.Errorf("place: cells %d and %d share %v", prev, i, l)
		}
		seen[l] = techmap.CellID(i)
	}
	return nil
}

// TestPlacerResultOwnership holds a Placer to its contract: each call
// overwrites the one Placement the first call made, and what it leaves
// there is what a new Placer returns, whichever design ran before.
// Package-level calls share nothing: a result outlives any later call.
func TestPlacerResultOwnership(t *testing.T) {
	var designs []*techmap.Mapped
	for _, name := range []string{"mul8", "alu8", "counter8", "mul8"} {
		designs = append(designs, mustMap(t, netlist.MustLookup(name)))
	}
	place := func(p *Placer, m *techmap.Mapped) *Placement {
		t.Helper()
		w, h := Shape(m.NumCells())
		pl, err := p.Place(m, w, h, Options{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		return pl
	}
	var p Placer
	first := place(&p, designs[0])
	for _, m := range designs[1:] {
		got := place(&p, m)
		if got != first {
			t.Fatalf("%s: a second call on one Placer returned a new Placement", m.Name)
		}
		if want := place(new(Placer), m); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: a reused Placer's result differs from a new one's", m.Name)
		}
	}

	small, large := designs[1], designs[0]
	w, h := Shape(small.NumCells())
	a, err := Place(small, w, h, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	before := place(new(Placer), small)
	w, h = Shape(large.NumCells())
	if b, err := Place(large, w, h, Options{Seed: 1}); err != nil || b == a {
		t.Fatalf("two package-level calls returned one Placement (err %v)", err)
	}
	if !reflect.DeepEqual(a, before) {
		t.Fatal("a package-level result changed under a later call")
	}
}

// groupNets is the reference net table: it walks the sinks in sink order
// and groups them in a map by driving signal, numbering nets as their
// first sinks appear, each sink with its slot. Pins number terminals as
// the placer does: cells, then input ports, then output ports.
func groupNets(m *techmap.Mapped) (order []int32, sinks, slots map[int32][]int32) {
	n := m.NumCells()
	sinks, slots = map[int32][]int32{}, map[int32][]int32{}
	slot := int32(0)
	add := func(sig techmap.Signal, sink int) {
		defer func() { slot++ }()
		var src int32
		switch sig.Kind {
		case techmap.SigCell:
			src = int32(sig.Cell)
		case techmap.SigInput:
			src = int32(n + sig.Input)
		default:
			return // constants drive no net
		}
		if _, ok := sinks[src]; !ok {
			order = append(order, src)
		}
		sinks[src] = append(sinks[src], int32(sink))
		slots[src] = append(slots[src], slot)
	}
	for ci := range m.Cells {
		for _, in := range m.Cells[ci].Inputs {
			add(in, ci)
		}
	}
	for oi, sig := range m.Outputs {
		add(sig, n+m.NumInputs+oi)
	}
	return order, sinks, slots
}

// checkNets holds a Placement's net table to groupNets.
func checkNets(t *testing.T, name string, pl *Placement) {
	t.Helper()
	order, sinks, slots := groupNets(pl.Mapped)
	if len(pl.NetStart) != len(order)+1 || pl.NetStart[0] != 0 ||
		len(pl.NetPins) != int(pl.NetStart[len(order)]) || len(pl.SinkSlot) != len(pl.NetPins) {
		t.Fatalf("%s: %d net starts, %d pins, %d slots for %d nets", name,
			len(pl.NetStart), len(pl.NetPins), len(pl.SinkSlot), len(order))
	}
	for nid, src := range order {
		pins := pl.NetPins[pl.NetStart[nid]:pl.NetStart[nid+1]]
		got := pl.SinkSlot[pl.NetStart[nid]:pl.NetStart[nid+1]]
		if len(pins) == 0 || pins[0] != src || got[0] != -1 ||
			!slices.Equal(pins[1:], sinks[src]) || !slices.Equal(got[1:], slots[src]) {
			t.Fatalf("%s: net %d has pins %v, slots %v; want source %d, sinks %v, slots %v",
				name, nid, pins, got, src, sinks[src], slots[src])
		}
	}
}

// TestNetTableMatchesGrouping checks the placer's net table, the one the
// router negotiates from, against a map-based grouping: over the library,
// and over random designs with constants, cells that read one net twice
// and inputs that drive nothing.
func TestNetTableMatchesGrouping(t *testing.T) {
	reg := netlist.Registry()
	names := make([]string, 0, len(reg))
	for name := range reg {
		names = append(names, name)
	}
	sort.Strings(names)
	var p Placer
	for _, name := range names {
		m := mustMap(t, netlist.Optimize(reg[name]()))
		w, h := Shape(m.NumCells())
		pl, err := p.Place(m, w, h, Options{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		checkNets(t, name, pl)
	}
	src := rng.New(13)
	var constants, twice, idle int
	for design := 0; design < 100; design++ {
		m := randomMapped(src)
		w, h := Shape(m.NumCells())
		pl, err := p.Place(m, w, h, Options{Seed: uint64(design)})
		if err != nil {
			t.Fatal(err)
		}
		checkNets(t, fmt.Sprintf("random %d", design), pl)
		read := make([]bool, m.NumInputs)
		for _, c := range m.Cells {
			for k, in := range c.Inputs {
				switch {
				case in.Kind == techmap.SigConst:
					constants++
				case slices.Contains(c.Inputs[:k], in):
					twice++
				}
				if in.Kind == techmap.SigInput {
					read[in.Input] = true
				}
			}
		}
		for _, sig := range m.Outputs {
			if sig.Kind == techmap.SigInput {
				read[sig.Input] = true
			}
		}
		for _, r := range read {
			if !r {
				idle++
			}
		}
	}
	if constants == 0 || twice == 0 || idle == 0 {
		t.Fatalf("designs missed a case: %d constant sinks, %d cells reading a net twice, %d idle inputs",
			constants, twice, idle)
	}
}
