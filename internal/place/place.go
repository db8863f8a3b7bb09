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

	"repro/internal/flat"
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
	// The design's nets, in CSR form: net n's pins are
	// NetPins[NetStart[n]:NetStart[n+1]], its source first. A pin numbers a
	// terminal as Cells, InPorts and OutPorts do, laid end to end. Sinks
	// are in sink order — every cell's LUT inputs in cell order, then the
	// output ports — and nets in the order of their first sinks: the order
	// the router negotiates them in. SinkSlot[k] is pin k's place in that
	// sink order, counting sinks a constant drives, and -1 for a source.
	NetStart, NetPins, SinkSlot []int32
	// Wirelength is the final half-perimeter wirelength (quality metric).
	Wirelength int
	// Moves counts the annealing moves evaluated: those whose wirelength
	// change was computed, accepted or not (the placer's work).
	Moves int
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

// Placer is Place with its net tables, occupancy grid and result kept
// from call to call. Everything the annealing loop touches is a flat
// array sized once per call, so a move allocates nothing, and once the
// arrays have grown to the largest design a call allocates nothing. The
// zero value is ready for use; a Placer is not safe for concurrent use.
type Placer struct {
	m      *techmap.Mapped
	w, h   int
	nCells int
	// pos is the combined position table: [0, nCells) are the movable
	// cells, then the input ports, then the output ports (both fixed).
	pos []Loc
	// The nets as Placement publishes them; a pin indexes pos.
	netStart, netPins, sinkSlot []int32
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
	moves    int // moves the last anneal evaluated
	// out is the last call's result, made by the first; its locations are
	// pos.
	out *Placement
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

// reset seeds the ports and cells of m in a w x h region, over the last
// call's position table, and builds its nets.
func (p *Placer) reset(m *techmap.Mapped, w, h int) {
	p.m, p.w, p.h, p.nCells = m, w, h, m.NumCells()
	p.pos = flat.Zeroed(p.pos, p.nCells+m.NumInputs+len(m.Outputs))
	// Cells in scan order, which keeps topologically adjacent cells
	// physically adjacent: the mapper numbers cells so that an
	// unregistered cell reads only unregistered cells with lower ids.
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

// placement writes the placer's positions into its Placement, made on the
// first call. The three location slices share pos's backing array, each
// capped to its own part.
func (p *Placer) placement() *Placement {
	if p.out == nil {
		p.out = new(Placement)
	}
	in, out := p.nCells, p.nCells+p.m.NumInputs
	*p.out = Placement{
		Mapped:     p.m,
		W:          p.w,
		H:          p.h,
		Cells:      p.pos[:in:in],
		InPorts:    p.pos[in:out:out],
		OutPorts:   p.pos[out:],
		NetStart:   p.netStart,
		NetPins:    p.netPins,
		SinkSlot:   p.sinkSlot,
		Wirelength: p.wirelength(),
		Moves:      p.moves,
	}
	return p.out
}

// Place places m into a w x h region. It returns an error if the region
// is too small.
func Place(m *techmap.Mapped, w, h int, opt Options) (*Placement, error) {
	return new(Placer).Place(m, w, h, opt)
}

// Place is the package-level Place over p's arrays. The Placement it
// returns is p's and is valid until p's next call, which overwrites it in
// place: a caller that keeps a result past that copies what it needs.
// The Placement refers to m.
func (p *Placer) Place(m *techmap.Mapped, w, h int, opt Options) (*Placement, error) {
	if m.NumCells() > w*h {
		return nil, fmt.Errorf("place: %s needs %d cells, region %dx%d has %d",
			m.Name, m.NumCells(), w, h, w*h)
	}
	p.reset(m, w, h)
	p.anneal(rng.New(opt.Seed ^ 0x9e3779b97f4a7c15))
	return p.placement(), nil
}

// buildNets creates one net per driving signal that has a sink, numbered
// in the order of their first sinks; a net's sinks keep sink order.
func (p *Placer) buildNets() {
	n, m := p.nCells, p.m
	nSrc := n + m.NumInputs
	// eachSink calls f(source, sink, slot) for every connection in sink
	// order, as position indices; constants drive no net but hold a slot.
	eachSink := func(f func(src, sink, slot int)) {
		slot := 0
		visit := func(sig techmap.Signal, sink int) {
			switch sig.Kind {
			case techmap.SigCell:
				f(int(sig.Cell), sink, slot)
			case techmap.SigInput:
				f(n+sig.Input, sink, slot)
			}
			slot++
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

	// next[src] is src's net id + 1 while nets are numbered and their sinks
	// counted into netStart (0: no sink yet), then the write cursor into
	// netPins for the net src drives.
	p.next = flat.Zeroed(p.next, nSrc)
	next := p.next
	p.netStart = append(slices.Grow(p.netStart[:0], nSrc+1), 0)
	eachSink(func(src, _, _ int) {
		if next[src] == 0 {
			p.netStart = append(p.netStart, 0)
			next[src] = p.numNets()
		}
		p.netStart[next[src]]++
	})
	for nid := 1; nid < len(p.netStart); nid++ {
		p.netStart[nid] += p.netStart[nid-1] + 1 // the sinks and the source
	}
	pins := int(p.netStart[p.numNets()])
	p.netPins = flat.Zeroed(p.netPins, pins)
	p.sinkSlot = flat.Zeroed(p.sinkSlot, pins)
	for src, id := range next {
		if id != 0 {
			at := p.netStart[id-1]
			p.netPins[at], p.sinkSlot[at] = int32(src), -1
			next[src] = int(at) + 1
		}
	}
	eachSink(func(src, sink, slot int) {
		p.netPins[next[src]], p.sinkSlot[next[src]] = int32(sink), int32(slot)
		next[src]++
	})
	p.nets = flat.Zeroed(p.nets, p.numNets())
	p.gen = 0

	// The per-cell net lists, counted then filled in net order.
	p.cellNetStart = flat.Zeroed(p.cellNetStart, n+1)
	cellPins := 0
	for _, pin := range p.netPins {
		if int(pin) < n {
			p.cellNetStart[pin+1]++
			cellPins++
		}
	}
	for c := 0; c < n; c++ {
		p.cellNetStart[c+1] += p.cellNetStart[c]
	}
	p.cellNets = flat.Zeroed(p.cellNets, cellPins)
	fill := next[:n] // reuse as the per-cell write cursor
	copy(fill, p.cellNetStart)
	for nid := 0; nid < p.numNets(); nid++ {
		for _, pin := range p.netPins[p.netStart[nid]:p.netStart[nid+1]] {
			if int(pin) < n {
				p.cellNets[fill[pin]] = nid
				fill[pin]++
			}
		}
	}
}

func (p *Placer) numNets() int { return len(p.netStart) - 1 }

// hpwl returns the half-perimeter wirelength of net nid. Pins and net
// starts are never negative, so it indexes by their uint32 values, whose
// bounds checks need no sign extension: the annealing loop's hot path.
func (p *Placer) hpwl(nid int) int {
	pins := p.netPins[uint32(p.netStart[nid]):uint32(p.netStart[nid+1])]
	l := p.pos[uint32(pins[0])]
	minX, maxX, minY, maxY := l.X, l.X, l.Y, l.Y
	for _, pin := range pins[1:] {
		l := p.pos[uint32(pin)]
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
func (p *Placer) anneal(src *rng.Source) {
	p.moves = 0
	nCells := p.nCells
	if nCells <= 1 || p.numNets() == 0 {
		return
	}
	p.occupant = flat.Zeroed(p.occupant, p.w*p.h)
	occupant := p.occupant
	for i := range occupant {
		occupant[i] = -1
	}
	site := func(l Loc) int { return l.Y*p.w + l.X }
	for i, l := range p.pos[:nCells] {
		occupant[site(l)] = i
	}
	p.commitAll()
	iters := 160 * nCells
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
			p.moves++
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
