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

// neighbors appends the orthogonal neighbors of node n to buf.
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

// routeScratch holds every buffer shortestPath needs, so the thousands of
// per-net searches a negotiation run performs share one set of
// allocations. Visited state is generation-stamped instead of cleared:
// bumping gen invalidates dist/prev/done for all nodes in O(1).
type routeScratch struct {
	dist    []float64
	prev    []int
	seenGen []uint32 // seenGen[n] == gen: dist/prev valid this search
	doneGen []uint32 // doneGen[n] == gen: node settled this search
	gen     uint32
	heap    []pqItem // manual binary min-heap (container/heap boxes items)
	path    []int
}

func newRouteScratch(nodes int) *routeScratch {
	s := &routeScratch{heap: make([]pqItem, 0, nodes), path: make([]int, 0, nodes)}
	s.ensure(nodes)
	return s
}

// ensure sizes the node-indexed buffers for a grid of n nodes.
func (s *routeScratch) ensure(n int) {
	if len(s.dist) >= n {
		return
	}
	s.dist = make([]float64, n)
	s.prev = make([]int, n)
	s.seenGen = make([]uint32, n)
	s.doneGen = make([]uint32, n)
	s.gen = 0
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

func (s *routeScratch) hpush(it pqItem) {
	s.heap = append(s.heap, it)
	i := len(s.heap) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if s.heap[parent].cost <= s.heap[i].cost {
			break
		}
		s.heap[parent], s.heap[i] = s.heap[i], s.heap[parent]
		i = parent
	}
}

func (s *routeScratch) hpop() pqItem {
	top := s.heap[0]
	last := len(s.heap) - 1
	s.heap[0] = s.heap[last]
	s.heap = s.heap[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < last && s.heap[l].cost < s.heap[min].cost {
			min = l
		}
		if r < last && s.heap[r].cost < s.heap[min].cost {
			min = r
		}
		if min == i {
			break
		}
		s.heap[i], s.heap[min] = s.heap[min], s.heap[i]
		i = min
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

	occ := make([]int, g.numEdges())      // present occupancy
	hist := make([]float64, g.numEdges()) // history cost
	inNet := make([]bool, g.numEdges())   // scratch: edges already in current net
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

	presFac := 0.5
	scratch := newRouteScratch(g.nodes())
	// One cost closure for the whole negotiation: it reads presFac and the
	// occupancy arrays by reference, so allocating it per connection (as a
	// literal in the loop would) is pure garbage-collector churn.
	cost := func(e edgeID) float64 {
		if inNet[e] {
			return 1e-4 // already carried by this net: reuse freely
		}
		over := float64(occ[e] + 1 - tracks)
		if over < 0 {
			over = 0
		}
		return (1 + hist[e]) * (1 + over*presFac)
	}
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
				path := scratch.shortestPath(g, from, to, cost)
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
		presFac *= 1.6
	}
	return nil, fmt.Errorf("route: %s unroutable in %dx%d with %d tracks after %d iterations (max use %d)",
		p.Mapped.Name, p.W, p.H, tracks, maxIter, res.MaxUse)
}

// shortestPath runs Dijkstra over the grid with the given edge cost. The
// returned slice aliases the scratch buffer and is valid only until the
// next call; callers that keep a path must copy it. Beyond amortized
// buffer growth the search allocates nothing.
func (s *routeScratch) shortestPath(g grid, from, to int, cost func(edgeID) float64) []int {
	s.path = s.path[:0]
	if from == to {
		s.path = append(s.path, from)
		return s.path
	}
	s.ensure(g.nodes())
	s.nextGen()
	s.heap = s.heap[:0]
	s.dist[from] = 0
	s.prev[from] = -1
	s.seenGen[from] = s.gen
	s.hpush(pqItem{node: from})
	var nbuf [4]int
	for len(s.heap) > 0 {
		it := s.hpop()
		if s.doneGen[it.node] == s.gen {
			continue
		}
		s.doneGen[it.node] = s.gen
		if it.node == to {
			break
		}
		for _, nb := range g.neighbors(it.node, nbuf[:0]) {
			if s.doneGen[nb] == s.gen {
				continue
			}
			c := it.cost + cost(g.edgeBetween(it.node, nb))
			if s.seenGen[nb] != s.gen || c < s.dist[nb] {
				s.seenGen[nb] = s.gen
				s.dist[nb] = c
				s.prev[nb] = it.node
				s.hpush(pqItem{node: nb, cost: c})
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
	// hops[sink] for cell-input connections, indexed [cell][pin].
	hops := make(map[[2]int]int)
	outHops := make(map[int]int)
	for i := range r.Conns {
		c := &r.Conns[i]
		if c.Sink.IsPort {
			outHops[c.Sink.Port] = c.Hops()
		} else {
			hops[[2]int{int(c.Sink.Cell), c.Sink.Input}] = c.Hops()
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
			t := src + sim.Time(hops[[2]int{ci, k}])*hopDelay
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
		t := src + sim.Time(outHops[oi])*hopDelay
		if t > crit {
			crit = t
		}
	}
	return crit
}
