// Package route routes the connections of a placed design through the
// fabric's channel graph using PathFinder-style negotiated congestion:
// every source-to-sink connection gets a shortest path, connections bid
// for channel segments, and congestion history pushes latecomers around
// hot spots until no channel exceeds its track capacity.
//
// Each connection's search is Dijkstra over positive, finite edge costs.
// It stops as soon as no key left in its heap, plus the cheapest edge into
// the sink, can undercut the sink's tentative cost: from then on no
// relaxation can change the sink's path, so the search returns the path a
// search run until the sink pops would, in fewer pops (shortestPath has
// the proof).
//
// Routing is what grounds two physical effects the paper leans on: a
// region must have spare cells/channels to be routable (area slack), and
// wire delay grows with distance (placement quality shows up in the clock
// period).
package route

import (
	"fmt"
	"math"
	"math/bits"
	"slices"

	"repro/internal/flat"
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
	Pops       int // heap pops over every search of every iteration: the router's work

	// CriticalPath's working arrays, per cell: where its pins start in
	// SinkHops and its output's arrival time.
	pinAt   []int32
	arrival []sim.Time
}

// Options tunes the router. It has no field: the one bound, the number
// of negotiation passes, is maxIterations for every caller.
type Options struct{}

// maxIterations bounds the negotiation loop.
const maxIterations = 40

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
// grid nodes it joins and the sink's slot in Result.SinkHops.
type conn struct {
	from, to, slot int32
}

// connections lists every routable connection of a placement into conns'
// array, net by net in the placement's net order, and returns them with
// the number of sinks. A net's pins are its source and its connections,
// so net n's connections are conns[NetStart[n]-n : NetStart[n+1]-n-1].
func connections(p *place.Placement, g grid, conns []conn) ([]conn, int) {
	m := p.Mapped
	sinks := len(m.Outputs)
	for ci := range m.Cells {
		sinks += len(m.Cells[ci].Inputs)
	}
	nets := len(p.NetStart) - 1
	conns = slices.Grow(conns[:0], len(p.NetPins)-nets)
	// A pin numbers the cells, then the input ports, then the output ports.
	node := func(pin int32) int32 {
		k := int(pin)
		if k < len(p.Cells) {
			return int32(g.node(p.Cells[k]))
		}
		if k -= len(p.Cells); k < len(p.InPorts) {
			return int32(g.node(p.InPorts[k]))
		}
		return int32(g.node(p.OutPorts[k-len(p.InPorts)]))
	}
	for n := 0; n < nets; n++ {
		start, end := p.NetStart[n], p.NetStart[n+1]
		from := node(p.NetPins[start])
		for k := start + 1; k < end; k++ {
			conns = append(conns, conn{from: from, to: node(p.NetPins[k]), slot: p.SinkSlot[k]})
		}
	}
	return conns, sinks
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
	pops    int      // hpop calls since reset
	path    []int
}

// reset readies s for a negotiation over g at tracks per channel, over
// the arrays of its last one, as newly made: no occupancy, no history, no
// edge marked as the net's, no node stamped.
func (s *routeScratch) reset(g grid, tracks int) {
	nodes, edges := g.nodes(), g.numEdges()
	s.g, s.tracks, s.presFac, s.pops = g, tracks, 0.5, 0
	s.occ = flat.Zeroed(s.occ, edges)
	s.hist = flat.Zeroed(s.hist, edges)
	s.inNet = flat.Zeroed(s.inNet, edges)
	s.dist = flat.Zeroed(s.dist, nodes)
	s.prev = flat.Zeroed(s.prev, nodes)
	s.seenGen = flat.Zeroed(s.seenGen, nodes)
	s.doneGen = flat.Zeroed(s.doneGen, nodes)
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
	over := float64(max(s.occ[e]+1-s.tracks, 0))
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
// decides which of two equally cheap paths a net takes. Keys are search
// distances: never negative, never NaN (see shortestPath).
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
	s.pops++
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
		if m+1 < last {
			// The borrow of right minus left is 1 exactly when the right
			// key is the smaller: keys are never negative or NaN, so their
			// bits order as they do. Adding it picks the child without a
			// branch the predictor would miss half the time.
			_, right := bits.Sub64(math.Float64bits(h[m+1].cost), math.Float64bits(h[m].cost), 0)
			m += int(right)
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
// p must be as place.Place returns it: its net table (NetStart, NetPins,
// SinkSlot) is the one list of connections routed, taken as given and not
// checked again.
func Route(p *place.Placement, tracks int, opt Options) (*Result, error) {
	return new(Router).Route(p, tracks, opt)
}

// Router is Route with its working state and its result kept from call
// to call: the search scratch, the connections, the last pass's paths,
// back to back in one arena of node ids — connection i's path is
// arena[pathAt[i].off:][:pathAt[i].n] — and the Result with its
// SinkHops and CriticalPath's arrays. Only a path's length outlives the
// pass; the tests read the paths themselves. Once the arrays have grown
// to the largest design, a call allocates nothing. The zero value is
// ready for use; a Router is not safe for concurrent use.
type Router struct {
	s        routeScratch
	conns    []conn
	pathAt   []pathSpan
	arena    []int32
	netEdges []edgeID
	out      *Result // the last call's result, made by the first
}

type pathSpan struct{ off, n int32 }

// Last returns the Result r's last call wrote, nil before its first.
//
//vfpgavet:ignore testonly -- observation hook: the compile tests read the per-sink hop counts a flow's router kept
func (r *Router) Last() *Result { return r.out }

// Route is the package-level Route over r's arrays. The Result it returns
// is r's and is valid until r's next call, which overwrites it in place:
// a caller that keeps a result past that copies what it needs. The Result
// refers to p.
func (r *Router) Route(p *place.Placement, tracks int, opt Options) (*Result, error) {
	if tracks <= 0 {
		return nil, fmt.Errorf("route: non-positive track count %d", tracks)
	}
	g := grid{w: p.W, h: p.H}
	var sinks int
	r.conns, sinks = connections(p, g, r.conns)
	conns := r.conns
	if r.out == nil {
		r.out = new(Result)
	}
	res := r.out
	*res = Result{P: p, Tracks: tracks, Conns: len(conns),
		SinkHops: res.SinkHops, pinAt: res.pinAt, arrival: res.arrival}

	s := &r.s
	s.reset(g, tracks)
	occ, hist, inNet := s.occ, s.hist, s.inNet
	// The arena is rewound when a pass rips everything up. A path is at
	// least its endpoints' Manhattan distance long, which sizes the arena
	// for an uncongested pass; the extra quarter is room for detours.
	r.pathAt = flat.Zeroed(r.pathAt, len(conns))
	pathAt := r.pathAt
	minNodes := 0
	for i := range conns {
		a, b := g.loc(int(conns[i].from)), g.loc(int(conns[i].to))
		minNodes += abs(a.X-b.X) + abs(a.Y-b.Y) + 1
	}
	arena := slices.Grow(r.arena[:0], minNodes+minNodes/4)

	netEdges := r.netEdges
	for iter := 1; iter <= maxIterations; iter++ {
		res.Iterations = iter
		// Rip up everything and re-route in order with current costs.
		for i := range occ {
			occ[i] = 0
		}
		arena = arena[:0]
		// A net's fanout shares one routing tree, so a channel segment
		// carries a net once no matter how many sinks lie beyond it.
		for n := 0; n+1 < len(p.NetStart); n++ {
			netEdges = netEdges[:0]
			for i := int(p.NetStart[n]) - n; i < int(p.NetStart[n+1])-n-1; i++ {
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
		res.MaxUse, res.Pops = maxUse, s.pops
		if !over {
			res.SinkHops = flat.Zeroed(res.SinkHops, sinks)
			for i, sp := range pathAt {
				res.SinkHops[conns[i].slot] = sp.n - 1
				res.TotalHops += int(sp.n - 1)
			}
			return res, nil
		}
		s.presFac *= 1.6
	}
	return nil, fmt.Errorf("route: %s unroutable in %dx%d with %d tracks after %d iterations (max use %d)",
		p.Mapped.Name, p.W, p.H, tracks, maxIterations, res.MaxUse)
}

// shortestPath runs Dijkstra over the grid under the negotiated edge
// cost. The returned slice aliases the scratch buffer and is valid only
// until the next call; callers that keep a path must copy it. Beyond
// amortized buffer growth the search allocates nothing.
//
// It returns the path a search run until it settles to would return, and
// stops sooner. Its precondition is that every edge costs more than zero
// and is finite (cost's floor is 1e-4), so every key is a sum of
// non-negative terms starting at +0: keys pop in order, and hpop may
// compare their bits. The stop rule: once to has a tentative cost D, the
// search ends before a pop whose key k has k + minIn >= D, minIn being
// the cheapest edge into to. Every key left in the heap is at least k and
// IEEE addition is monotone, so any later relaxation of to would cost at
// least D and fail the strict compare: prev[to] is final, and so is the
// prev chain of the settled nodes behind it. For the same reason a
// settled neighbor needs no test of its own: its dist is at most the key
// being expanded, which a relaxation never undercuts.
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
	// Costs do not change during a search, so the cheapest way into to is
	// priced once.
	minIn := math.Inf(1)
	for _, nb := range s.g.expand(to, &hops) {
		minIn = min(minIn, s.cost(nb.edge))
	}
	for len(s.heap) > 0 {
		if s.seenGen[to] == s.gen && s.heap[0].cost+minIn >= s.dist[to] {
			break
		}
		it := s.hpop()
		n := it.node
		if s.doneGen[n] == s.gen {
			continue
		}
		s.doneGen[n] = s.gen
		for _, nb := range s.g.expand(n, &hops) {
			c := it.cost + s.cost(nb.edge)
			if s.seenGen[nb.node] != s.gen || c < s.dist[nb.node] {
				s.seenGen[nb.node] = s.gen
				s.dist[nb.node] = c
				s.prev[nb.node] = n
				s.hpush(pqItem{node: nb.node, cost: c})
			}
		}
	}
	if s.seenGen[to] != s.gen {
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
// and input-to-output paths. It works in arrays r keeps from call to
// call, so it is not safe for concurrent calls on one Result.
func (r *Result) CriticalPath(lutDelay, hopDelay sim.Time) sim.Time {
	m := r.P.Mapped
	// Cell ci's pins are SinkHops[pinAt[ci]:pinAt[ci+1]]; output port oi is
	// at ports+oi.
	r.pinAt = flat.Zeroed(r.pinAt, len(m.Cells)+1)
	pinAt := r.pinAt
	for ci := range m.Cells {
		pinAt[ci+1] = pinAt[ci] + int32(len(m.Cells[ci].Inputs))
	}
	ports := int(pinAt[len(m.Cells)])
	hops := r.SinkHops
	// arrival is each unregistered cell's output time; register outputs and
	// inputs are time-zero sources.
	r.arrival = flat.Zeroed(r.arrival, len(m.Cells))
	arrival := r.arrival
	crit := sim.Time(0)
	// Unregistered cells first, in cell order, which reads every arrival
	// after it is written: the mapper numbers an unregistered cell after
	// the unregistered cells it reads. Then the registered cells, whose
	// input paths end at their registers and may read any cell. Every
	// cell's input path is a lower bound, which covers dangling cells.
	for _, registered := range [2]bool{false, true} {
		for ci := range m.Cells {
			if m.Cells[ci].UseFF != registered {
				continue
			}
			worst := sim.Time(0)
			pins := hops[pinAt[ci]:pinAt[ci+1]]
			for k, in := range m.Cells[ci].Inputs {
				var src sim.Time
				if in.Kind == techmap.SigCell && !m.Cells[in.Cell].UseFF {
					src = arrival[in.Cell]
				}
				worst = max(worst, src+sim.Time(pins[k])*hopDelay)
			}
			arrival[ci] = worst + lutDelay
			crit = max(crit, arrival[ci])
		}
	}
	for oi, sig := range m.Outputs {
		var src sim.Time
		if sig.Kind == techmap.SigCell && !m.Cells[sig.Cell].UseFF {
			src = arrival[sig.Cell]
		}
		crit = max(crit, src+sim.Time(hops[ports+oi])*hopDelay)
	}
	return crit
}
