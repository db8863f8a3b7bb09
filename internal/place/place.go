// Package place assigns the cells of a technology-mapped design to CLB
// locations inside a rectangular region. Placements are expressed in
// region-relative coordinates, which is what makes compiled circuits
// relocatable: the paper's variable partitioning and garbage collection
// depend on loading the same configuration "virtually in any location of
// the FPGA".
//
// The placer is a greedy scan-order seed refined by simulated annealing
// over half-perimeter wirelength. It is deterministic for a given seed.
package place

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/rng"
	"repro/internal/techmap"
)

// Loc is a region-relative CLB coordinate.
type Loc struct {
	X, Y int
}

// Placement maps every cell of a mapped design to a distinct location in a
// W x H region (origin at (0,0); the loader translates on download).
type Placement struct {
	Mapped *techmap.Mapped
	W, H   int
	Cells  []Loc // indexed by CellID
	// InPorts and OutPorts are the nominal boundary positions of the
	// primary inputs and outputs, used for wirelength and routing; the
	// manager binds them to physical device pins at load time.
	InPorts  []Loc
	OutPorts []Loc
	// Wirelength is the final half-perimeter wirelength (quality metric).
	Wirelength int
}

// Options tunes the placer.
type Options struct {
	Seed uint64
}

// Shape returns a near-square region shape with enough cells for the
// design plus routing slack. The minimum slack keeps the router from
// being boxed in on dense designs.
func Shape(cells int) (w, h int) {
	if cells <= 0 {
		return 1, 1
	}
	target := cells + cells/8 + 1 // ~12% slack
	w = int(math.Ceil(math.Sqrt(float64(target))))
	h = (target + w - 1) / w
	if w < 1 {
		w = 1
	}
	if h < 1 {
		h = 1
	}
	return w, h
}

// Placer is Place with its net tables and occupancy grid kept from call
// to call. Everything the annealing loop touches is a flat array sized
// once per call, so a move allocates nothing, and once the arrays have
// grown to the largest design a call allocates only the Placement it
// returns. The zero value is ready for use; a Placer is not safe for
// concurrent use.
type Placer struct {
	m      *techmap.Mapped
	w, h   int
	nCells int
	// pos is the combined position table: [0, nCells) are the movable
	// cells, then the input ports, then the output ports (both fixed).
	pos []Loc
	// Nets in CSR form: net n's pins are netPins[netStart[n]:netStart[n+1]],
	// indices into pos with the source first.
	netStart []int
	netPins  []int
	// The nets touching each cell, CSR over cell index. A cell wired to a
	// net twice lists it twice; delta deduplicates.
	cellNetStart []int
	cellNets     []int
	// Per-net annealing state, beside the tables it is derived from.
	nets []netState
	gen  uint32
	// pending is delta's result: the nets the move under evaluation touches,
	// each at its wirelength after the move; accepting the move commits it.
	pending []netCost
	// occupant maps a site to the cell on it, -1 when free; next is
	// buildNets' per-source cursor.
	occupant []int
	next     []int
}

type netState struct {
	// cost is the net's committed wirelength: hpwl at the positions the
	// last accepted move left, so a move is charged only its "after" side.
	cost int32
	// gen == Placer.gen: net already counted in this delta call. Bumping
	// Placer.gen clears every mark in O(1) — routeScratch's convention.
	gen uint32
}

type netCost struct{ net, cost int32 }

// reset seeds the ports and cells of m in a w x h region, in a new
// position table, and builds its nets.
func (p *Placer) reset(m *techmap.Mapped, w, h int) {
	p.m, p.w, p.h, p.nCells = m, w, h, m.NumCells()
	p.pos = make([]Loc, p.nCells+m.NumInputs+len(m.Outputs))
	// Cells in scan order, which keeps topologically adjacent cells
	// physically adjacent (the mapper creates cells in topological-ish
	// order).
	for i := 0; i < p.nCells; i++ {
		p.pos[i] = Loc{X: i % w, Y: i / w}
	}
	// Input ports spread along the left edge, output ports along the right.
	spread := func(locs []Loc, edgeX int) {
		for i := range locs {
			y := 0
			if len(locs) > 1 {
				y = i * (h - 1) / (len(locs) - 1)
			}
			locs[i] = Loc{X: edgeX, Y: y}
		}
	}
	spread(p.pos[p.nCells:p.nCells+m.NumInputs], 0)
	spread(p.pos[p.nCells+m.NumInputs:], w-1)
	p.buildNets()
}

// placement snapshots the placer's positions as a Placement. The three
// location slices share pos's backing array, each capped to its own part.
func (p *Placer) placement() *Placement {
	in, out := p.nCells, p.nCells+p.m.NumInputs
	return &Placement{
		Mapped:     p.m,
		W:          p.w,
		H:          p.h,
		Cells:      p.pos[:in:in],
		InPorts:    p.pos[in:out:out],
		OutPorts:   p.pos[out:],
		Wirelength: p.wirelength(),
	}
}

// Place places m into a w x h region. It returns an error if the region
// is too small.
func Place(m *techmap.Mapped, w, h int, opt Options) (*Placement, error) {
	return new(Placer).Place(m, w, h, opt)
}

// Place is the package-level Place over p's arrays. The Placement it
// returns is the caller's; p keeps no reference to it or to m.
func (p *Placer) Place(m *techmap.Mapped, w, h int, opt Options) (*Placement, error) {
	if m.NumCells() > w*h {
		return nil, fmt.Errorf("place: %s needs %d cells, region %dx%d has %d",
			m.Name, m.NumCells(), w, h, w*h)
	}
	p.reset(m, w, h)
	p.anneal(1, rng.New(opt.Seed^0x9e3779b97f4a7c15))
	pl := p.placement()
	p.m, p.pos = nil, nil
	return pl, nil
}

// zeroed returns s at length n, all zero — what make would return —
// reusing its array when it is large enough.
func zeroed[T any](s []T, n int) []T {
	s = slices.Grow(s[:0], n)[:n]
	clear(s)
	return s
}

// buildNets creates one net per driving signal that has a sink, in source
// position order; a net's sinks keep the order the design lists them in
// (cell inputs, then primary outputs).
func (p *Placer) buildNets() {
	n, m := p.nCells, p.m
	nSrc := n + m.NumInputs
	// eachSink calls f(source, sink) for every connection, as position
	// indices; constants drive no net.
	eachSink := func(f func(src, sink int)) {
		visit := func(sig techmap.Signal, sink int) {
			switch sig.Kind {
			case techmap.SigCell:
				f(int(sig.Cell), sink)
			case techmap.SigInput:
				f(n+sig.Input, sink)
			}
		}
		for ci := range m.Cells {
			for _, in := range m.Cells[ci].Inputs {
				visit(in, ci)
			}
		}
		for oi, sig := range m.Outputs {
			visit(sig, nSrc+oi)
		}
	}

	// next[src] counts the sinks of src, then becomes the write cursor
	// into netPins for the net src drives.
	p.next = zeroed(p.next, nSrc)
	next := p.next
	conns := 0
	eachSink(func(src, _ int) { next[src]++; conns++ })
	p.netStart = slices.Grow(p.netStart[:0], nSrc+1)
	p.netPins = slices.Grow(p.netPins[:0], conns+nSrc)
	for src, sinks := range next {
		if sinks == 0 {
			continue
		}
		p.netStart = append(p.netStart, len(p.netPins))
		p.netPins = append(p.netPins, src)
		next[src] = len(p.netPins)
		p.netPins = p.netPins[:len(p.netPins)+sinks]
	}
	p.netStart = append(p.netStart, len(p.netPins))
	eachSink(func(src, sink int) {
		p.netPins[next[src]] = sink
		next[src]++
	})
	p.nets = zeroed(p.nets, p.numNets())
	p.gen = 0

	// The per-cell net lists, counted then filled in net order.
	p.cellNetStart = zeroed(p.cellNetStart, n+1)
	cellPins := 0
	for _, pin := range p.netPins {
		if pin < n {
			p.cellNetStart[pin+1]++
			cellPins++
		}
	}
	for c := 0; c < n; c++ {
		p.cellNetStart[c+1] += p.cellNetStart[c]
	}
	p.cellNets = zeroed(p.cellNets, cellPins)
	fill := next[:n] // reuse as the per-cell write cursor
	copy(fill, p.cellNetStart)
	for nid := 0; nid < p.numNets(); nid++ {
		for _, pin := range p.netPins[p.netStart[nid]:p.netStart[nid+1]] {
			if pin < n {
				p.cellNets[fill[pin]] = nid
				fill[pin]++
			}
		}
	}
}

func (p *Placer) numNets() int { return len(p.netStart) - 1 }

// hpwl returns the half-perimeter wirelength of net nid.
func (p *Placer) hpwl(nid int) int {
	pins := p.netPins[p.netStart[nid]:p.netStart[nid+1]]
	l := p.pos[pins[0]]
	minX, maxX, minY, maxY := l.X, l.X, l.Y, l.Y
	for _, pin := range pins[1:] {
		l := p.pos[pin]
		minX, maxX = min(minX, l.X), max(maxX, l.X)
		minY, maxY = min(minY, l.Y), max(maxY, l.Y)
	}
	return (maxX - minX) + (maxY - minY)
}

// wirelength sums the HPWL of every net.
func (p *Placer) wirelength() int {
	total := 0
	for nid := 0; nid < p.numNets(); nid++ {
		total += p.hpwl(nid)
	}
	return total
}

// delta returns the change in total wirelength of the move already written
// into pos — cell a moved, and cell b if b >= 0 — against the committed
// costs, scanning each net that touches a or b once. The nets' new costs
// are left in pending.
func (p *Placer) delta(a, b int) int {
	p.gen++
	if p.gen == 0 { // wrapped: stale stamps could collide, so clear
		for i := range p.nets {
			p.nets[i].gen = 0
		}
		p.gen = 1
	}
	p.pending = p.pending[:0]
	d := 0
	for _, c := range [2]int{a, b} {
		if c < 0 {
			continue
		}
		for _, nid := range p.cellNets[p.cellNetStart[c]:p.cellNetStart[c+1]] {
			if net := &p.nets[nid]; net.gen != p.gen {
				net.gen = p.gen
				cost := p.hpwl(nid)
				d += cost - int(net.cost)
				p.pending = append(p.pending, netCost{net: int32(nid), cost: int32(cost)})
			}
		}
	}
	return d
}

// commitAll charges every net its wirelength at the current positions and
// sizes pending for the two busiest cells: the state delta works against.
func (p *Placer) commitAll() {
	for nid := range p.nets {
		p.nets[nid].cost = int32(p.hpwl(nid))
	}
	maxNets := 0
	for c := 0; c < p.nCells; c++ {
		maxNets = max(maxNets, p.cellNetStart[c+1]-p.cellNetStart[c])
	}
	p.pending = slices.Grow(p.pending[:0], 2*maxNets)
}

// anneal runs simulated annealing: each move takes a random cell to a
// random site, swapping with the cell already there if there is one.
// effort scales the schedule: more improves wirelength at linear cost.
func (p *Placer) anneal(effort int, src *rng.Source) {
	nCells := p.nCells
	if nCells <= 1 || p.numNets() == 0 {
		return
	}
	p.occupant = zeroed(p.occupant, p.w*p.h)
	occupant := p.occupant
	for i := range occupant {
		occupant[i] = -1
	}
	site := func(l Loc) int { return l.Y*p.w + l.X }
	for i, l := range p.pos[:nCells] {
		occupant[site(l)] = i
	}
	p.commitAll()
	iters := effort * 160 * nCells
	temp := float64(p.w + p.h)
	cooling := math.Pow(0.005/temp, 1/float64(iters+1))
	for it := 0; it < iters; it++ {
		ci := src.Intn(nCells)
		target := Loc{X: src.Intn(p.w), Y: src.Intn(p.h)}
		if cj := occupant[site(target)]; cj != ci {
			from := p.pos[ci]
			p.pos[ci] = target
			if cj >= 0 {
				p.pos[cj] = from
			}
			if accept(p.delta(ci, cj), temp, src) {
				occupant[site(target)] = ci
				occupant[site(from)] = cj
				for _, nc := range p.pending {
					p.nets[nc.net].cost = nc.cost
				}
			} else {
				p.pos[ci] = from
				if cj >= 0 {
					p.pos[cj] = target
				}
			}
		}
		temp *= cooling
	}
}

// accept decides a move that changes the wirelength by delta: downhill
// and level moves always pass, without a draw.
func accept(delta int, temp float64, src *rng.Source) bool {
	if delta <= 0 {
		return true
	}
	return src.Float64() < math.Exp(float64(-delta)/temp)
}

// TotalWirelength recomputes the HPWL of the placement (exposed for tests
// and reports).
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
