package netlist

import (
	"fmt"

	"repro/internal/flat"
)

// Optimize returns a functionally equivalent netlist with constants
// folded through the logic, algebraic identities applied (x AND x = x,
// x XOR x = 0, muxes with constant selects collapsed, ...), structurally
// identical gates shared, and unreachable combinational logic removed.
//
// Port order and names are preserved exactly. Flip-flops are never
// removed: their state is externally observable through readback (the
// paper's preemption mechanism), so "dead" state is still state.
func Optimize(nl *Netlist) *Netlist { return new(Optimizer).Optimize(nl) }

// Optimizer is Optimize with its working arrays kept from call to call:
// the fold's value table and structural hash, the sweep's renumbering,
// the check's tables, and the netlist it builds. Once they have grown to
// the largest input, a call allocates nothing. The zero value is ready
// for use; an Optimizer is not safe for concurrent use.
type Optimizer struct {
	b     Builder
	vals  []val
	have  []bool
	cse   map[cseKey]NodeID
	remap []NodeID
	chk   checkScratch
}

// val is the optimized form of an original node: a constant or a node in
// the new netlist.
type val struct {
	isConst bool
	c       bool
	id      NodeID
}

// cseKey is a gate's structural identity: identical (kind, fanins) gates
// share one node. Unused fanin slots stay zero; the kind fixes the arity.
type cseKey struct {
	kind    Kind
	x, y, z NodeID
}

// Optimize is the package-level Optimize over o's arrays. The netlist it
// returns is o's: it is valid until o's next call.
func (o *Optimizer) Optimize(nl *Netlist) *Netlist {
	out := o.fold(nl)
	o.sweep(out)
	if err := out.check(&o.chk); err != nil {
		panic(fmt.Sprintf("netlist: optimize produced an invalid netlist: %v", err))
	}
	return out
}

// fold rewrites nl with constants folded, identities applied and
// identical gates shared. The rewrite is neither validated nor ordered
// and may hold logic the folding orphaned: Optimize sweeps it, then
// checks and orders it once.
func (o *Optimizer) fold(nl *Netlist) *Netlist {
	b := &o.b
	b.rebuild(nl)
	o.vals = flat.Zeroed(o.vals, len(nl.Nodes))
	o.have = flat.Zeroed(o.have, len(nl.Nodes))
	vals, have := o.vals, o.have

	// Structural hashing: a gate hashes at most one node, a NAND or NOR
	// two (the AND or OR and its NOT), which sizes the table once.
	if o.cse == nil {
		hashes := 0
		for i := range nl.Nodes {
			switch nl.Nodes[i].Kind {
			case KindNot, KindAnd, KindOr, KindXor, KindMux:
				hashes++
			case KindNand, KindNor:
				hashes += 2
			}
		}
		o.cse = make(map[cseKey]NodeID, hashes)
	}
	cse := o.cse
	clear(cse)
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

	// Pre-create flip-flops (their D inputs may form loops); each gets its
	// D source once the logic exists.
	for _, id := range nl.DFFs {
		vals[id] = val{id: b.DFF(0, nl.Nodes[id].Init)}
		have[id] = true
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
		b.nl.Nodes[vals[id].id].Fanin[0] = materialize(valOf(nl.Nodes[id].Fanin[0]))
	}
	// Recreate outputs in port order.
	for _, id := range nl.Outputs {
		b.Output(nl.Nodes[id].Name, materialize(valOf(nl.Nodes[id].Fanin[0])))
	}
	return b.freeze()
}

// sweep removes, in place, the nodes of a folded netlist that no output
// or flip-flop reads (folding can orphan shared subexpressions). Inputs
// always survive to preserve the port interface. The rest keep their
// order and are numbered densely, their fanins rewritten in the windows
// they already own.
//
// fold adds every node after its fanins, except that a flip-flop's D
// input is set once the logic exists. So with every flip-flop's D source
// marked first, one pass from the last node down marks all that is live.
func (o *Optimizer) sweep(nl *Netlist) {
	// remap[i] is dead, then live once a kept node reads i, then i's new id.
	const dead, live = -1, 0
	o.remap = flat.Zeroed(o.remap, len(nl.Nodes))
	remap := o.remap
	for i := range remap {
		remap[i] = dead
	}
	for _, id := range nl.Inputs {
		remap[id] = live
	}
	for _, id := range nl.Outputs {
		remap[id] = live
	}
	for _, id := range nl.DFFs {
		remap[id] = live
		remap[nl.Nodes[id].Fanin[0]] = live
	}
	for i := len(nl.Nodes) - 1; i >= 0; i-- {
		if remap[i] == live {
			for _, f := range nl.Nodes[i].Fanin {
				remap[f] = live
			}
		}
	}
	n := NodeID(0)
	for i, r := range remap {
		if r == live {
			remap[i] = n
			n++
		}
	}
	if int(n) == len(nl.Nodes) {
		return
	}
	for i := range nl.Nodes {
		id := remap[i]
		if id == dead {
			continue
		}
		nd := nl.Nodes[i]
		nd.ID = id
		for k, f := range nd.Fanin {
			nd.Fanin[k] = remap[f]
		}
		nl.Nodes[id] = nd
	}
	nl.Nodes = nl.Nodes[:n]
	for i, id := range nl.Inputs {
		nl.Inputs[i] = remap[id]
	}
	for i, id := range nl.Outputs {
		nl.Outputs[i] = remap[id]
	}
	for i, id := range nl.DFFs {
		nl.DFFs[i] = remap[id]
	}
}
