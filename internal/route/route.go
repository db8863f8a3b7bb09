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
	"slices"

	"repro/internal/place"
	"repro/internal/sim"
	"repro/internal/techmap"
)

// Result is a complete legal routing. It keeps how long each connection
// is, not the path it takes: the critical path and the wirelength are all
// its readers need.
type Result struct {
	P *place.Placement
	// SinkHops holds the channel segments the connection into each sink
	// crosses: every cell's LUT pins in cell order, then the output ports.
	// A sink a constant drives is not routed and reads 0.
	SinkHops   []int32
	Conns      int // connections routed
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

// conn is one source-to-sink connection as the negotiation routes it: the
// key of its net (the driving signal, numbered as the placer numbers
// sources: cells, then primary inputs), the grid nodes it joins, and the
// sink's slot in Result.SinkHops.
type conn struct {
	src, from, to, slot int32
}

// connections enumerates every routable connection of a placement in sink
// order into conns' array, and returns them with the number of sinks.
func connections(p *place.Placement, g grid, conns []conn) ([]conn, int) {
	m := p.Mapped
	sinks := len(m.Outputs)
	for ci := range m.Cells {
		sinks += len(m.Cells[ci].Inputs)
	}
	conns = slices.Grow(conns[:0], sinks)
	var slot int32
	for ci := range m.Cells {
		to := int32(g.node(p.Cells[ci]))
		for _, in := range m.Cells[ci].Inputs {
			if in.Kind != techmap.SigConst {
				conns = append(conns, connFrom(p, g, in, to, slot))
			}
			slot++
		}
	}
	for oi, sig := range m.Outputs {
		if sig.Kind != techmap.SigConst {
			conns = append(conns, connFrom(p, g, sig, int32(g.node(p.OutPorts[oi])), slot))
		}
		slot++
	}
	return conns, sinks
}

// connFrom is the connection from signal sig into the sink in slot at
// grid node to.
func connFrom(p *place.Placement, g grid, sig techmap.Signal, to, slot int32) conn {
	if sig.Kind == techmap.SigCell {
		return conn{src: int32(sig.Cell), from: int32(g.node(p.Cells[sig.Cell])), to: to, slot: slot}
	}
	return conn{src: int32(len(p.Mapped.Cells) + sig.Input), from: int32(g.node(p.InPorts[sig.Input])), to: to, slot: slot}
}

// netTable groups connections into nets by driving signal, in CSR form:
// net n's connections are conns[start[n]:start[n+1]], in connection
// order, and nets are numbered in order of first appearance — the order
// the negotiation loop routes them in.
type netTable struct {
	start []int32
	conns []int32
	// at[key] is the key's net id + 1 while build numbers and counts nets
	// (0: not seen yet), then the write cursor into conns.
	at []int32
}

func (t *netTable) numNets() int { return len(t.start) - 1 }

// build groups conns by their net keys, which are below keys, over the
// table's arrays.
func (t *netTable) build(keys int, conns []conn) {
	t.at = zeroed(t.at, keys)
	t.start = append(slices.Grow(t.start[:0], keys+1), 0)
	t.conns = zeroed(t.conns, len(conns))
	at := t.at
	for i := range conns {
		k := conns[i].src
		if at[k] == 0 {
			t.start = append(t.start, 0)
			at[k] = int32(t.numNets())
		}
		t.start[at[k]]++
	}
	for n := 1; n < len(t.start); n++ {
		t.start[n] += t.start[n-1]
	}
	for k, id := range at {
		if id != 0 {
			at[k] = t.start[id-1]
		}
	}
	for i := range conns {
		k := conns[i].src
		t.conns[at[k]] = int32(i)
		at[k]++
	}
}

// zeroed returns s at length n, all zero — what make would return —
// reusing its array when it is large enough.
func zeroed[T any](s []T, n int) []T {
	s = slices.Grow(s[:0], n)[:n]
	clear(s)
	return s
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

// reset readies s for a negotiation over g at tracks per channel, over
// the arrays of its last one, as newly made: no occupancy, no history, no
// edge marked as the net's, no node stamped.
func (s *routeScratch) reset(g grid, tracks int) {
	nodes, edges := g.nodes(), g.numEdges()
	s.g, s.tracks, s.presFac = g, tracks, 0.5
	s.occ = zeroed(s.occ, edges)
	s.hist = zeroed(s.hist, edges)
	s.inNet = zeroed(s.inNet, edges)
	s.dist = zeroed(s.dist, nodes)
	s.prev = zeroed(s.prev, nodes)
	s.seenGen = zeroed(s.seenGen, nodes)
	s.doneGen = zeroed(s.doneGen, nodes)
	s.heap = slices.Grow(s.heap[:0], nodes)
	s.path = slices.Grow(s.path[:0], nodes)
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
	return new(Router).Route(p, tracks, opt)
}

// Router is Route with its working state kept from call to call: the
// search scratch, the connections and their nets, and the last pass's
// paths, back to back in one arena of node ids — connection i's path is
// arena[pathAt[i].off:][:pathAt[i].n]. Only a path's length outlives the
// pass; the tests read the paths themselves. Once the arrays have grown
// to the largest design, a call allocates only the Result it returns.
// The zero value is ready for use; a Router is not safe for concurrent
// use.
type Router struct {
	s        routeScratch
	conns    []conn
	nets     netTable
	pathAt   []pathSpan
	arena    []int32
	netEdges []edgeID
}

type pathSpan struct{ off, n int32 }

// Route is the package-level Route over r's arrays. The Result it returns
// is the caller's; r keeps no reference to it or to p.
func (r *Router) Route(p *place.Placement, tracks int, opt Options) (*Result, error) {
	if tracks <= 0 {
		return nil, fmt.Errorf("route: non-positive track count %d", tracks)
	}
	maxIter := opt.MaxIterations
	if maxIter <= 0 {
		maxIter = 40
	}
	g := grid{w: p.W, h: p.H}
	var sinks int
	r.conns, sinks = connections(p, g, r.conns)
	conns := r.conns
	res := &Result{P: p, Tracks: tracks, Conns: len(conns)}

	// Group connections into nets by driving signal: a net's fanout shares
	// one routing tree, so a channel segment carries a net once no matter
	// how many sinks lie beyond it.
	nets := &r.nets
	nets.build(len(p.Mapped.Cells)+p.Mapped.NumInputs, conns)

	s := &r.s
	s.reset(g, tracks)
	occ, hist, inNet := s.occ, s.hist, s.inNet
	// The arena is rewound when a pass rips everything up. A path is at
	// least its endpoints' Manhattan distance long, which sizes the arena
	// for an uncongested pass; the extra quarter is room for detours.
	r.pathAt = zeroed(r.pathAt, len(conns))
	pathAt := r.pathAt
	minNodes := 0
	for i := range conns {
		a, b := g.loc(int(conns[i].from)), g.loc(int(conns[i].to))
		minNodes += abs(a.X-b.X) + abs(a.Y-b.Y) + 1
	}
	arena := slices.Grow(r.arena[:0], minNodes+minNodes/4)

	netEdges := r.netEdges
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
				path := s.shortestPath(int(conns[i].from), int(conns[i].to))
				pathAt[i] = pathSpan{off: int32(len(arena)), n: int32(len(path))}
				for _, nd := range path {
					arena = append(arena, int32(nd))
				}
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
		r.arena, r.netEdges = arena, netEdges // kept as grown, for the next call
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
			res.SinkHops = make([]int32, sinks)
			for i, sp := range pathAt {
				res.SinkHops[conns[i].slot] = sp.n - 1
				res.TotalHops += int(sp.n - 1)
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
	// Cell ci's pins are SinkHops[pinAt[ci]:pinAt[ci+1]]; output port oi is
	// at ports+oi.
	pinAt := make([]int32, len(m.Cells)+1)
	for ci := range m.Cells {
		pinAt[ci+1] = pinAt[ci] + int32(len(m.Cells[ci].Inputs))
	}
	ports := int(pinAt[len(m.Cells)])
	hops := r.SinkHops
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
