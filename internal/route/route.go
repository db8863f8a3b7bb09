// Package route routes the connections of a placed design through the
// fabric's channel graph using PathFinder-style negotiated congestion:
// every source-to-sink connection gets a shortest path, connections bid
// for channel segments, and congestion history pushes latecomers around
// hot spots until no channel exceeds its track capacity.
//
// Routing is what grounds two physical effects the paper leans on: a
// region must have spare cells/channels to be routable (area slack), and
// wire delay grows with distance (placement quality shows up in the clock
// period).
package route

import (
	"fmt"

	"repro/internal/place"
	"repro/internal/sim"
	"repro/internal/techmap"
)

// Sink identifies the endpoint of a connection: either a LUT input pin of
// a cell, or a primary output port.
type Sink struct {
	IsPort bool
	Cell   techmap.CellID // when !IsPort
	Input  int            // LUT pin index when !IsPort
	Port   int            // output port index when IsPort
}

// Connection is one routed source-to-sink path.
type Connection struct {
	Src  techmap.Signal // SigCell or SigInput (constants are not routed)
	Sink Sink
	Path []place.Loc // traversed cells, endpoints included
}

// Hops returns the number of channel segments the connection crosses.
func (c *Connection) Hops() int { return len(c.Path) - 1 }

// Result is a complete legal routing.
type Result struct {
	P          *place.Placement
	Conns      []Connection
	Tracks     int // channel capacity routed against
	MaxUse     int // maximum channel occupancy achieved
	Iterations int // negotiation iterations used
	TotalHops  int
}

// Options tunes the router.
type Options struct {
	// MaxIterations bounds the negotiation loop; 0 selects the default.
	MaxIterations int
}

// edge indexes the undirected channel between two adjacent cells.
// Horizontal edges: between (x,y) and (x+1,y); vertical between (x,y) and
// (x,y+1).
type edgeID int

type grid struct {
	w, h int
}

func (g grid) nodes() int { return g.w * g.h }
func (g grid) node(l place.Loc) int {
	return l.Y*g.w + l.X
}
func (g grid) loc(n int) place.Loc { return place.Loc{X: n % g.w, Y: n / g.w} }

// hEdges are indexed first, then vEdges.
func (g grid) numEdges() int { return (g.w-1)*g.h + g.w*(g.h-1) }

// edgeBetween returns the edge id between two adjacent nodes.
func (g grid) edgeBetween(a, b int) edgeID {
	la, lb := g.loc(a), g.loc(b)
	if la.Y == lb.Y { // horizontal
		x := la.X
		if lb.X < x {
			x = lb.X
		}
		return edgeID(la.Y*(g.w-1) + x)
	}
	y := la.Y
	if lb.Y < y {
		y = lb.Y
	}
	return edgeID((g.w-1)*g.h + y*g.w + la.X)
}

// hop is one step of a search: the neighbor reached and the edge crossed.
type hop struct {
	node int
	edge edgeID
}

// expand returns the hops out of node n, written into buf. The order —
// left, right, up, down — is part of the artifact: it decides which of two
// equally cheap paths the search finds first. With n = y*w + x, the
// horizontal edge from (x, y) to the right is y*(w-1) + x = n - y and the
// vertical one downwards is n past the horizontal edges, so a node costs
// one division, not one per edge.
func (g grid) expand(n int, buf *[4]hop) []hop {
	y := n / g.w
	x := n - y*g.w
	vEdge := (g.w-1)*g.h + n
	k := 0
	if x > 0 {
		buf[k] = hop{n - 1, edgeID(n - y - 1)}
		k++
	}
	if x < g.w-1 {
		buf[k] = hop{n + 1, edgeID(n - y)}
		k++
	}
	if y > 0 {
		buf[k] = hop{n - g.w, edgeID(vEdge - g.w)}
		k++
	}
	if y < g.h-1 {
		buf[k] = hop{n + g.w, edgeID(vEdge)}
		k++
	}
	return buf[:k]
}

// connections enumerates every routable connection of a placement in
// deterministic order.
func connections(p *place.Placement) []Connection {
	n := 0
	for ci := range p.Mapped.Cells {
		n += len(p.Mapped.Cells[ci].Inputs)
	}
	conns := make([]Connection, 0, n+len(p.Mapped.Outputs))
	for ci := range p.Mapped.Cells {
		for k, in := range p.Mapped.Cells[ci].Inputs {
			if in.Kind == techmap.SigConst {
				continue
			}
			conns = append(conns, Connection{
				Src:  in,
				Sink: Sink{Cell: techmap.CellID(ci), Input: k},
			})
		}
	}
	for oi, sig := range p.Mapped.Outputs {
		if sig.Kind == techmap.SigConst {
			continue
		}
		conns = append(conns, Connection{
			Src:  sig,
			Sink: Sink{IsPort: true, Port: oi},
		})
	}
	return conns
}

// netTable groups connections into nets by driving signal, in CSR form:
// net n's connections are conns[start[n]:start[n+1]], in connection
// order, and nets are numbered in order of first appearance — the order
// the negotiation loop routes them in.
type netTable struct {
	start []int32
	conns []int32
}

func (t *netTable) numNets() int { return len(t.start) - 1 }

// buildNets indexes sources the way the placer does (cells, then primary
// inputs), which identifies a driving signal without hashing it.
func buildNets(m *techmap.Mapped, conns []Connection) netTable {
	srcPos := func(sig techmap.Signal) int {
		if sig.Kind == techmap.SigCell {
			return int(sig.Cell)
		}
		return len(m.Cells) + sig.Input
	}
	nSrc := len(m.Cells) + m.NumInputs
	// slot[src] is the source's net id + 1 while nets are numbered and
	// counted (0: not seen yet), then the write cursor into t.conns.
	slot := make([]int32, nSrc)
	t := netTable{start: make([]int32, 1, nSrc+1), conns: make([]int32, len(conns))}
	for i := range conns {
		src := srcPos(conns[i].Src)
		if slot[src] == 0 {
			t.start = append(t.start, 0)
			slot[src] = int32(t.numNets())
		}
		t.start[slot[src]]++
	}
	for n := 1; n < len(t.start); n++ {
		t.start[n] += t.start[n-1]
	}
	for src, id := range slot {
		if id != 0 {
			slot[src] = t.start[id-1]
		}
	}
	for i := range conns {
		src := srcPos(conns[i].Src)
		t.conns[slot[src]] = int32(i)
		slot[src]++
	}
	return t
}

func (r *Result) srcLoc(sig techmap.Signal) place.Loc {
	if sig.Kind == techmap.SigCell {
		return r.P.Cells[sig.Cell]
	}
	return r.P.InPorts[sig.Input]
}

func (r *Result) sinkLoc(s Sink) place.Loc {
	if s.IsPort {
		return r.P.OutPorts[s.Port]
	}
	return r.P.Cells[s.Cell]
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// pqItem is a priority-queue entry for Dijkstra.
type pqItem struct {
	node int
	cost float64
}

// routeScratch is what the per-net searches of one negotiation run share:
// the congestion they price edges from, and every buffer shortestPath
// needs, so thousands of searches cost one set of allocations. Visited
// state is generation-stamped instead of cleared: bumping gen invalidates
// dist/prev/done for all nodes in O(1).
type routeScratch struct {
	g grid
	// The negotiated congestion, per edge: present occupancy, history
	// cost, and whether the net being routed already carries the edge.
	tracks  int
	presFac float64
	occ     []int
	hist    []float64
	inNet   []bool

	dist    []float64
	prev    []int
	seenGen []uint32 // seenGen[n] == gen: dist/prev valid this search
	doneGen []uint32 // doneGen[n] == gen: node settled this search
	gen     uint32
	heap    []pqItem // manual binary min-heap (container/heap boxes items)
	path    []int
}

func newRouteScratch(g grid, tracks int) *routeScratch {
	nodes, edges := g.nodes(), g.numEdges()
	return &routeScratch{
		g:       g,
		tracks:  tracks,
		presFac: 0.5,
		occ:     make([]int, edges),
		hist:    make([]float64, edges),
		inNet:   make([]bool, edges),
		dist:    make([]float64, nodes),
		prev:    make([]int, nodes),
		seenGen: make([]uint32, nodes),
		doneGen: make([]uint32, nodes),
		heap:    make([]pqItem, 0, nodes),
		path:    make([]int, 0, nodes),
	}
}

// cost is the negotiated price of crossing edge e for the net being
// routed. The conversion rounds the product before a caller adds to it:
// inlined, it could otherwise fuse into that sum on a target with a fused
// multiply-add and round differently than the call it replaces.
func (s *routeScratch) cost(e edgeID) float64 {
	if s.inNet[e] {
		return 1e-4 // already carried by this net: reuse freely
	}
	over := float64(s.occ[e] + 1 - s.tracks)
	if over < 0 {
		over = 0
	}
	return float64((1 + s.hist[e]) * (1 + over*s.presFac))
}

// nextGen starts a new search, handling the (theoretical) wraparound.
func (s *routeScratch) nextGen() {
	s.gen++
	if s.gen == 0 { // wrapped: stale stamps could collide, so clear
		for i := range s.seenGen {
			s.seenGen[i] = 0
			s.doneGen[i] = 0
		}
		s.gen = 1
	}
}

// hpush and hpop sift by moving a hole, not by swapping: they make the
// comparisons a swapping sift makes and leave the array it leaves. That
// array is part of the routing contract — the pop order among equal keys
// decides which of two equally cheap paths a net takes.
func (s *routeScratch) hpush(it pqItem) {
	i := len(s.heap)
	s.heap = append(s.heap, it)
	for i > 0 {
		parent := (i - 1) / 2
		if s.heap[parent].cost <= it.cost {
			break
		}
		s.heap[i] = s.heap[parent]
		i = parent
	}
	s.heap[i] = it
}

func (s *routeScratch) hpop() pqItem {
	top := s.heap[0]
	last := len(s.heap) - 1
	it := s.heap[last]
	h := s.heap[:last]
	s.heap = h
	i := 0
	for {
		m := 2*i + 1 // the smaller child; the left one on a tie
		if m >= last {
			break
		}
		if r := m + 1; r < last && h[r].cost < h[m].cost {
			m = r
		}
		if !(h[m].cost < it.cost) {
			break
		}
		h[i] = h[m]
		i = m
	}
	if last > 0 {
		h[i] = it
	}
	return top
}

// Route produces a legal routing of p against the given channel capacity.
func Route(p *place.Placement, tracks int, opt Options) (*Result, error) {
	if tracks <= 0 {
		return nil, fmt.Errorf("route: non-positive track count %d", tracks)
	}
	maxIter := opt.MaxIterations
	if maxIter <= 0 {
		maxIter = 40
	}
	g := grid{w: p.W, h: p.H}
	res := &Result{P: p, Tracks: tracks, Conns: connections(p)}

	// Group connections into nets by driving signal: a net's fanout shares
	// one routing tree, so a channel segment carries a net once no matter
	// how many sinks lie beyond it.
	nets := buildNets(p.Mapped, res.Conns)

	s := newRouteScratch(g, tracks)
	occ, hist, inNet := s.occ, s.hist, s.inNet
	// The working paths of one negotiation pass live back to back in one
	// arena of node ids, rewound when the pass rips everything up;
	// connection i's path is arena[pathAt[i].off:][:pathAt[i].n]. A path is
	// at least its endpoints' Manhattan distance long, which sizes the
	// arena for an uncongested pass; the extra quarter is room for detours.
	type pathSpan struct{ off, n int32 }
	pathAt := make([]pathSpan, len(res.Conns))
	minNodes := 0
	for i := range res.Conns {
		a, b := res.srcLoc(res.Conns[i].Src), res.sinkLoc(res.Conns[i].Sink)
		minNodes += abs(a.X-b.X) + abs(a.Y-b.Y) + 1
	}
	arena := make([]int, 0, minNodes+minNodes/4)

	var netEdges []edgeID
	for iter := 1; iter <= maxIter; iter++ {
		res.Iterations = iter
		// Rip up everything and re-route in order with current costs.
		for i := range occ {
			occ[i] = 0
		}
		arena = arena[:0]
		for n := 0; n < nets.numNets(); n++ {
			netEdges = netEdges[:0]
			for _, i := range nets.conns[nets.start[n]:nets.start[n+1]] {
				c := &res.Conns[i]
				from, to := g.node(res.srcLoc(c.Src)), g.node(res.sinkLoc(c.Sink))
				path := s.shortestPath(from, to)
				pathAt[i] = pathSpan{off: int32(len(arena)), n: int32(len(path))}
				arena = append(arena, path...)
				for k := 0; k+1 < len(path); k++ {
					e := g.edgeBetween(path[k], path[k+1])
					if !inNet[e] {
						inNet[e] = true
						netEdges = append(netEdges, e)
						occ[e]++
					}
				}
			}
			for _, e := range netEdges {
				inNet[e] = false
			}
		}
		// Check for overuse.
		maxUse, over := 0, false
		for e, u := range occ {
			if u > maxUse {
				maxUse = u
			}
			if u > tracks {
				over = true
				hist[e] += float64(u - tracks)
			}
		}
		res.MaxUse = maxUse
		if !over {
			// The result paths share one backing store, each capped to
			// its own extent so an append cannot run into its neighbor.
			locs := make([]place.Loc, len(arena))
			res.TotalHops = 0
			for i := range res.Conns {
				sp := pathAt[i]
				out := locs[:sp.n:sp.n]
				locs = locs[sp.n:]
				for k, n := range arena[sp.off : sp.off+sp.n] {
					out[k] = g.loc(n)
				}
				res.Conns[i].Path = out
				res.TotalHops += res.Conns[i].Hops()
			}
			return res, nil
		}
		s.presFac *= 1.6
	}
	return nil, fmt.Errorf("route: %s unroutable in %dx%d with %d tracks after %d iterations (max use %d)",
		p.Mapped.Name, p.W, p.H, tracks, maxIter, res.MaxUse)
}

// shortestPath runs Dijkstra over the grid under the negotiated edge
// cost. The returned slice aliases the scratch buffer and is valid only
// until the next call; callers that keep a path must copy it. Beyond
// amortized buffer growth the search allocates nothing.
func (s *routeScratch) shortestPath(from, to int) []int {
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
	for i, j := 0, len(s.path)-1; i < j; i, j = i+1, j-1 {
		s.path[i], s.path[j] = s.path[j], s.path[i]
	}
	return s.path
}

// CriticalPath returns the longest combinational delay through the routed
// design: LUT delay per logic level plus hop delay per channel segment,
// over all register-to-register, input-to-register, register-to-output
// and input-to-output paths.
func (r *Result) CriticalPath(lutDelay, hopDelay sim.Time) sim.Time {
	m := r.P.Mapped
	// Hops by sink, in the order connections emits them: pin k of cell ci
	// at pinAt[ci]+k, then output port oi at ports+oi. A constant is not
	// routed, so its slot stays 0.
	pinAt := make([]int32, len(m.Cells)+1)
	for ci := range m.Cells {
		pinAt[ci+1] = pinAt[ci] + int32(len(m.Cells[ci].Inputs))
	}
	ports := int(pinAt[len(m.Cells)])
	hops := make([]int32, ports+len(m.Outputs))
	for i := range r.Conns {
		c := &r.Conns[i]
		if c.Sink.IsPort {
			hops[ports+c.Sink.Port] = int32(c.Hops())
		} else {
			hops[int(pinAt[c.Sink.Cell])+c.Sink.Input] = int32(c.Hops())
		}
	}
	// arrival time of each cell's output (combinational cells only; FF
	// outputs and inputs are time-zero sources).
	arrival := make([]sim.Time, len(m.Cells))
	state := make([]uint8, len(m.Cells))
	crit := sim.Time(0)
	var arrive func(ci int) sim.Time
	inputArrival := func(ci int) sim.Time {
		worst := sim.Time(0)
		pins := hops[pinAt[ci]:pinAt[ci+1]]
		for k, in := range m.Cells[ci].Inputs {
			var src sim.Time
			switch in.Kind {
			case techmap.SigCell:
				if !m.Cells[in.Cell].UseFF {
					src = arrive(int(in.Cell))
				}
			case techmap.SigInput, techmap.SigConst:
				src = 0
			}
			t := src + sim.Time(pins[k])*hopDelay
			if t > worst {
				worst = t
			}
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
	for ci := range m.Cells {
		// Every cell's D/LUT input path terminates a timing path when the
		// cell is registered; otherwise it contributes via consumers, but
		// we still take it as a lower bound (covers dangling comb cells).
		t := inputArrival(ci) + lutDelay
		if t > crit {
			crit = t
		}
	}
	for oi, sig := range m.Outputs {
		var src sim.Time
		if sig.Kind == techmap.SigCell && !m.Cells[sig.Cell].UseFF {
			src = arrive(int(sig.Cell))
		}
		t := src + sim.Time(hops[ports+oi])*hopDelay
		if t > crit {
			crit = t
		}
	}
	return crit
}
