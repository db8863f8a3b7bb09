package netlist

import "fmt"

// Optimize returns a functionally equivalent netlist with constants
// folded through the logic, algebraic identities applied (x AND x = x,
// x XOR x = 0, muxes with constant selects collapsed, ...), structurally
// identical gates shared, and unreachable combinational logic removed.
//
// Port order and names are preserved exactly. Flip-flops are never
// removed: their state is externally observable through readback (the
// paper's preemption mechanism), so "dead" state is still state.
func Optimize(nl *Netlist) *Netlist {
	b := rebuilderFor(nl)

	// val is the optimized form of an original node: a constant or a node
	// in the new netlist.
	type val struct {
		isConst bool
		c       bool
		id      NodeID
	}
	vals := make([]val, len(nl.Nodes))
	have := make([]bool, len(nl.Nodes))

	// Structural hashing: identical (kind, fanins) gates share one node.
	// Unused fanin slots of the key stay zero; the kind fixes the arity.
	type cseKey struct {
		kind    Kind
		x, y, z NodeID
	}
	cse := map[cseKey]NodeID{}
	hashed := func(kind Kind, x, y, z NodeID) NodeID {
		switch kind {
		case KindAnd, KindOr, KindXor:
			if y < x { // commutative: one key for either operand order
				x, y = y, x
			}
		}
		key := cseKey{kind, x, y, z}
		if id, ok := cse[key]; ok {
			return id
		}
		var id NodeID
		switch kind {
		case KindNot:
			id = b.Not(x)
		case KindAnd:
			id = b.And(x, y)
		case KindOr:
			id = b.Or(x, y)
		case KindXor:
			id = b.Xor(x, y)
		case KindMux:
			id = b.Mux(x, y, z)
		default:
			panic("netlist: unhashable kind")
		}
		cse[key] = id
		return id
	}

	constVal := func(c bool) val { return val{isConst: true, c: c} }
	// materialize turns a val into a node id (creating a shared constant
	// node when needed).
	var const0, const1 NodeID
	var haveC0, haveC1 bool
	materialize := func(v val) NodeID {
		if !v.isConst {
			return v.id
		}
		if v.c {
			if !haveC1 {
				const1, haveC1 = b.Const(true), true
			}
			return const1
		}
		if !haveC0 {
			const0, haveC0 = b.Const(false), true
		}
		return const0
	}
	notOf := func(v val) val {
		if v.isConst {
			return constVal(!v.c)
		}
		return val{id: hashed(KindNot, v.id, 0, 0)}
	}

	// Pre-create flip-flops (their D inputs may form loops).
	setD := map[NodeID]func(NodeID){}
	for _, id := range nl.DFFs {
		q, set := feedback(b, nl.Nodes[id].Init)
		vals[id] = val{id: q}
		have[id] = true
		setD[id] = set
	}

	// resolve follows Buf/Output transparency in the original netlist.
	var valOf func(id NodeID) val
	valOf = func(id NodeID) val {
		nd := &nl.Nodes[id]
		if nd.Kind == KindBuf || nd.Kind == KindOutput {
			return valOf(nd.Fanin[0])
		}
		if !have[id] {
			panic(fmt.Sprintf("netlist: optimize visited node %d before its fanins", id))
		}
		return vals[id]
	}

	for _, id := range nl.TopoOrder() {
		nd := &nl.Nodes[id]
		if have[id] {
			continue // DFF, pre-created
		}
		var v val
		switch nd.Kind {
		case KindInput:
			v = val{id: b.Input(nd.Name)}
		case KindConst:
			v = constVal(nd.Init)
		case KindBuf, KindOutput:
			have[id] = true
			continue // transparent; resolved on demand
		case KindNot:
			v = notOf(valOf(nd.Fanin[0]))
		case KindAnd, KindNand:
			a, c := valOf(nd.Fanin[0]), valOf(nd.Fanin[1])
			switch {
			case a.isConst && !a.c, c.isConst && !c.c:
				v = constVal(false)
			case a.isConst && a.c:
				v = c
			case c.isConst && c.c:
				v = a
			case a.id == c.id:
				v = a
			default:
				v = val{id: hashed(KindAnd, a.id, c.id, 0)}
			}
			if nd.Kind == KindNand {
				v = notOf(v)
			}
		case KindOr, KindNor:
			a, c := valOf(nd.Fanin[0]), valOf(nd.Fanin[1])
			switch {
			case a.isConst && a.c, c.isConst && c.c:
				v = constVal(true)
			case a.isConst && !a.c:
				v = c
			case c.isConst && !c.c:
				v = a
			case a.id == c.id:
				v = a
			default:
				v = val{id: hashed(KindOr, a.id, c.id, 0)}
			}
			if nd.Kind == KindNor {
				v = notOf(v)
			}
		case KindXor:
			a, c := valOf(nd.Fanin[0]), valOf(nd.Fanin[1])
			switch {
			case a.isConst && c.isConst:
				v = constVal(a.c != c.c)
			case a.isConst && !a.c:
				v = c
			case c.isConst && !c.c:
				v = a
			case a.isConst && a.c:
				v = notOf(c)
			case c.isConst && c.c:
				v = notOf(a)
			case a.id == c.id:
				v = constVal(false)
			default:
				v = val{id: hashed(KindXor, a.id, c.id, 0)}
			}
		case KindMux:
			s, z, o := valOf(nd.Fanin[0]), valOf(nd.Fanin[1]), valOf(nd.Fanin[2])
			switch {
			case s.isConst && !s.c:
				v = z
			case s.isConst && s.c:
				v = o
			case z.isConst && o.isConst && z.c == o.c:
				v = z
			case !z.isConst && !o.isConst && z.id == o.id:
				v = z
			case z.isConst && o.isConst && !z.c && o.c:
				v = s // mux(s, 0, 1) = s
			case z.isConst && o.isConst && z.c && !o.c:
				v = notOf(s) // mux(s, 1, 0) = !s
			default:
				v = val{id: hashed(KindMux, materialize(s), materialize(z), materialize(o))}
			}
		default:
			panic(fmt.Sprintf("netlist: optimize unknown kind %v", nd.Kind))
		}
		vals[id] = v
		have[id] = true
	}

	// Close flip-flop loops.
	for _, id := range nl.DFFs {
		setD[id](materialize(valOf(nl.Nodes[id].Fanin[0])))
	}
	// Recreate outputs in port order.
	for _, id := range nl.Outputs {
		b.Output(nl.Nodes[id].Name, materialize(valOf(nl.Nodes[id].Fanin[0])))
	}
	return sweep(b.MustBuild())
}

// sweep removes nodes unreachable from the outputs and flip-flops
// (folding can orphan shared subexpressions). Inputs always survive to
// preserve the port interface.
func sweep(nl *Netlist) *Netlist {
	keep := make([]bool, len(nl.Nodes))
	var mark func(id NodeID)
	mark = func(id NodeID) {
		if keep[id] {
			return
		}
		keep[id] = true
		for _, f := range nl.Nodes[id].Fanin {
			mark(f)
		}
	}
	for _, id := range nl.Outputs {
		mark(id)
	}
	for _, id := range nl.DFFs {
		mark(id)
	}
	for _, id := range nl.Inputs {
		keep[id] = true
	}
	all := true
	for _, k := range keep {
		if !k {
			all = false
			break
		}
	}
	if all {
		return nl
	}
	nodes, edges := 0, 0
	for i, k := range keep {
		if k {
			nodes++
			edges += len(nl.Nodes[i].Fanin)
		}
	}
	out := &Netlist{
		Name:    nl.Name,
		Nodes:   make([]Node, 0, nodes),
		Inputs:  make([]NodeID, len(nl.Inputs)),
		Outputs: make([]NodeID, len(nl.Outputs)),
		DFFs:    make([]NodeID, len(nl.DFFs)),
	}
	fanins := make([]NodeID, edges) // every kept node's fanins; each a capped window
	remap := make([]NodeID, len(nl.Nodes))
	for i := range nl.Nodes {
		if !keep[i] {
			continue
		}
		nd := nl.Nodes[i]
		nd.ID = NodeID(len(out.Nodes))
		remap[i] = nd.ID
		if n := len(nd.Fanin); n > 0 {
			nd.Fanin, fanins = fanins[:n:n], fanins[n:]
			copy(nd.Fanin, nl.Nodes[i].Fanin)
		}
		out.Nodes = append(out.Nodes, nd)
	}
	for i := range out.Nodes {
		for k, f := range out.Nodes[i].Fanin {
			out.Nodes[i].Fanin[k] = remap[f]
		}
	}
	for i, id := range nl.Inputs {
		out.Inputs[i] = remap[id]
	}
	for i, id := range nl.Outputs {
		out.Outputs[i] = remap[id]
	}
	for i, id := range nl.DFFs {
		out.DFFs[i] = remap[id]
	}
	if err := out.validate(); err != nil {
		panic(fmt.Sprintf("netlist: sweep produced invalid netlist: %v", err))
	}
	if err := out.computeTopo(); err != nil {
		panic(fmt.Sprintf("netlist: sweep produced cyclic netlist: %v", err))
	}
	return out
}
