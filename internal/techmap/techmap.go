// Package techmap lowers gate-level netlists onto the fabric's logic
// blocks: every combinational cone is packed into 4-input LUTs, and flip-
// flops are packed into the register of the CLB that computes their D
// input whenever that cone has no other fanout (the XC4000 CLB structure).
//
// The mapper is a single-cut-per-node greedy packer: it is not optimal,
// but it is deterministic, complete (any netlist maps), and produces the
// realistic CLB counts the virtualization experiments need.
package techmap

import (
	"fmt"
	"slices"

	"repro/internal/flat"
	"repro/internal/netlist"
)

// CellID identifies a mapped logic cell within one Mapped design.
type CellID int

// SignalKind enumerates the sources a mapped connection can have.
type SignalKind uint8

// Signal source kinds.
const (
	SigCell  SignalKind = iota // output of a mapped cell
	SigInput                   // primary input, by index
	SigConst                   // constant value
)

// Signal identifies a value in the mapped design.
type Signal struct {
	Kind  SignalKind
	Cell  CellID // when Kind == SigCell
	Input int    // when Kind == SigInput
	Const bool   // when Kind == SigConst
}

// Cell is one mapped logic block: a LUT over up to four input signals and
// an optional output register.
type Cell struct {
	ID     CellID
	LUT    [16]bool // truth table over Inputs, input i = bit i of the index
	Inputs []Signal // at most 4
	UseFF  bool
	FFInit bool
}

// Mapped is a technology-mapped design, ready for placement.
type Mapped struct {
	Name      string
	Cells     []Cell
	NumInputs int
	Outputs   []Signal // one per primary output, in port order
	// Depth is the maximum number of LUTs on any combinational path.
	Depth int
}

// NumCells returns the CLB count of the mapped design — its area.
func (m *Mapped) NumCells() int { return len(m.Cells) }

// Mapper is Map with its per-node tables and its result kept from call
// to call: fanout counts, chosen cuts, the cell per node, the depth per
// cell, and the Mapped with its cell table and its one array of LUT
// inputs. Once they have grown to the largest input, a call allocates
// nothing. The zero value is ready for use; a Mapper is not safe for
// concurrent use.
type Mapper struct {
	nl     *netlist.Netlist
	fanout []int              // resolved fanout count per node
	cut    [][]netlist.NodeID // chosen cut per gate node, indexed by NodeID
	store  []netlist.NodeID   // every chosen cut, back to back
	cellOf []CellID           // cell per root node, indexed by NodeID; -1 for none
	cells  int                // cells counted
	pins   int                // LUT inputs of the cells counted
	inputs []Signal           // the LUT-input array every cell's Inputs is a window of
	free   []Signal           // the part of inputs no cell holds yet
	out    *Mapped            // the last call's result, made by the first
	depth  []int              // lutDepth's depth per cell
}

// Map lowers nl onto 4-LUT cells. It returns an error if any node needs a
// cut wider than the LUT (cannot happen with the primitive set, whose
// maximum arity is 3) or the netlist is malformed.
func Map(nl *netlist.Netlist) (*Mapped, error) { return new(Mapper).Map(nl) }

// Map is the package-level Map over m's tables. The Mapped it returns is
// m's and is valid until m's next call, which overwrites it in place: a
// caller that keeps a result past that copies what it needs. m keeps no
// reference to nl.
func (m *Mapper) Map(nl *netlist.Netlist) (*Mapped, error) {
	if m.out == nil {
		m.out = new(Mapped)
	}
	out := m.out
	*out = Mapped{Name: nl.Name, NumInputs: nl.NumInputs(), Cells: out.Cells[:0], Outputs: out.Outputs[:0]}
	m.nl, m.cells, m.pins = nl, 0, 0
	defer func() { m.nl, m.free = nil, nil }()
	m.countFanouts()
	m.chooseCuts()
	if err := m.realize(); err != nil {
		return nil, err
	}
	out.Depth = m.lutDepth()
	return out, nil
}

// resolve follows Buf and Output nodes to the node that actually produces
// the value.
func (m *Mapper) resolve(id netlist.NodeID) netlist.NodeID {
	for {
		nd := m.nl.Node(id)
		if nd.Kind == netlist.KindBuf || nd.Kind == netlist.KindOutput {
			id = nd.Fanin[0]
			continue
		}
		return id
	}
}

// isGate reports whether the node is combinational logic (mappable into a
// LUT cone).
func (m *Mapper) isGate(id netlist.NodeID) bool {
	switch m.nl.Node(id).Kind {
	case netlist.KindInput, netlist.KindOutput, netlist.KindConst,
		netlist.KindBuf, netlist.KindDFF:
		return false
	}
	return true
}

// countFanouts counts, per node, the number of distinct logical consumers
// after resolving bufs: gate fanins, DFF D inputs, and primary outputs.
func (m *Mapper) countFanouts() {
	m.fanout = flat.Zeroed(m.fanout, len(m.nl.Nodes))
	for i := range m.nl.Nodes {
		nd := m.nl.Node(netlist.NodeID(i))
		switch nd.Kind {
		case netlist.KindBuf:
			continue // transparent; its consumer counts against the source
		case netlist.KindOutput, netlist.KindDFF:
			m.fanout[m.resolve(nd.Fanin[0])]++
		default:
			for _, f := range nd.Fanin {
				m.fanout[m.resolve(f)]++
			}
		}
	}
}

// addLeaves merges cut leaves into dst, dropping constants (they consume
// no LUT input: the truth table folds them).
func (m *Mapper) addLeaves(dst []netlist.NodeID, leaves []netlist.NodeID) []netlist.NodeID {
	for _, l := range leaves {
		if m.nl.Node(l).Kind == netlist.KindConst {
			continue
		}
		dup := false
		for _, d := range dst {
			if d == l {
				dup = true
				break
			}
		}
		if !dup {
			dst = append(dst, l)
		}
	}
	return dst
}

// maxArity is the widest primitive gate (the mux).
const maxArity = 3

// chooseCuts picks, for every gate in topological order, a set of at most
// four leaf nodes from which its value is computable. Expanding a fanin
// absorbs that gate into this LUT; we prefer to absorb single-fanout gates
// (saving a cell) and then to minimize leaf count.
func (m *Mapper) chooseCuts() {
	order := m.nl.TopoOrder()
	m.cut = flat.Zeroed(m.cut, len(m.nl.Nodes))
	// Every chosen cut is a slice of store, which is sized for the worst
	// case so it never moves. Candidates are built in the leaves scratch
	// (an unpruned candidate holds up to maxArity whole cuts) and only the
	// best so far is copied out, over the one it beats.
	store := slices.Grow(m.store[:0], 4*len(order))
	var fanins [maxArity]netlist.NodeID
	var scratch [4 * maxArity]netlist.NodeID
	for _, id := range order {
		if !m.isGate(id) {
			continue
		}
		nd := m.nl.Node(id)
		nf := len(nd.Fanin)
		for i, f := range nd.Fanin {
			fanins[i] = m.resolve(f)
		}
		bestScore, at := -1, len(store)
		for mask := (1 << uint(nf)) - 1; mask >= 0; mask-- {
			leaves := scratch[:0]
			absorbed := 0
			for i, f := range fanins[:nf] {
				if mask&(1<<uint(i)) != 0 && m.isGate(f) {
					// Expanded: the fanin contributes its own cut.
					leaves = m.addLeaves(leaves, m.cut[f])
					absorbed++
				} else {
					leaves = m.addLeaves(leaves, fanins[i:i+1])
				}
			}
			if len(leaves) > 4 {
				continue
			}
			// Score: absorbing gate fanins is free (a gate only costs a
			// cell if some chosen cut keeps it as a leaf), so prefer the
			// deepest cut; among those, fewer leaves helps downstream.
			score := absorbed*16 + (4 - len(leaves))
			if score > bestScore {
				bestScore = score
				store = append(store[:at], leaves...)
			}
		}
		// The mask-0 candidate is the fanins themselves (arity <= 3 < 4),
		// so there always is a winner.
		m.cut[id] = store[at:len(store):len(store)]
	}
	m.store = store
}

// coneEval evaluates node id with cut leaf i at bit i of vals (and
// implicit constant folding).
func (m *Mapper) coneEval(id netlist.NodeID, leaves []netlist.NodeID, vals int) bool {
	id = m.resolve(id)
	for i, l := range leaves {
		if l == id {
			return vals>>uint(i)&1 == 1
		}
	}
	nd := m.nl.Node(id)
	switch nd.Kind {
	case netlist.KindConst:
		return nd.Init
	case netlist.KindNot:
		return !m.coneEval(nd.Fanin[0], leaves, vals)
	case netlist.KindAnd:
		return m.coneEval(nd.Fanin[0], leaves, vals) && m.coneEval(nd.Fanin[1], leaves, vals)
	case netlist.KindOr:
		return m.coneEval(nd.Fanin[0], leaves, vals) || m.coneEval(nd.Fanin[1], leaves, vals)
	case netlist.KindXor:
		return m.coneEval(nd.Fanin[0], leaves, vals) != m.coneEval(nd.Fanin[1], leaves, vals)
	case netlist.KindNand:
		return !(m.coneEval(nd.Fanin[0], leaves, vals) && m.coneEval(nd.Fanin[1], leaves, vals))
	case netlist.KindNor:
		return !(m.coneEval(nd.Fanin[0], leaves, vals) || m.coneEval(nd.Fanin[1], leaves, vals))
	case netlist.KindMux:
		if m.coneEval(nd.Fanin[0], leaves, vals) {
			return m.coneEval(nd.Fanin[2], leaves, vals)
		}
		return m.coneEval(nd.Fanin[1], leaves, vals)
	}
	panic(fmt.Sprintf("techmap: cone evaluation reached %v node %d outside its cut", nd.Kind, id))
}

// signalFor returns (realizing if necessary) the mapped signal carrying
// the value of node id.
func (m *Mapper) signalFor(id netlist.NodeID) (Signal, error) {
	id = m.resolve(id)
	nd := m.nl.Node(id)
	switch nd.Kind {
	case netlist.KindConst:
		return Signal{Kind: SigConst, Const: nd.Init}, nil
	case netlist.KindInput:
		for i, in := range m.nl.Inputs {
			if in == id {
				return Signal{Kind: SigInput, Input: i}, nil
			}
		}
		return Signal{}, fmt.Errorf("techmap: input node %d not in port list", id)
	case netlist.KindDFF:
		c, err := m.realizeDFF(id)
		if err != nil {
			return Signal{}, err
		}
		return Signal{Kind: SigCell, Cell: c}, nil
	default:
		c, err := m.realizeGate(id)
		if err != nil {
			return Signal{}, err
		}
		return Signal{Kind: SigCell, Cell: c}, nil
	}
}

// window cuts the next n LUT inputs from the array realize sized, capped
// so a cell's inputs never reach its neighbour's.
func (m *Mapper) window(n int) []Signal {
	w := m.free[:n:n]
	m.free = m.free[n:]
	return w
}

// lutOver fills in the truth table and input signals of cell for the cone
// rooted at root over root's cut.
func (m *Mapper) lutOver(cell *Cell, root netlist.NodeID) error {
	leaves := m.cut[root]
	if len(leaves) > 4 {
		return fmt.Errorf("techmap: cut of %d leaves at node %d", len(leaves), root)
	}
	cell.Inputs = m.window(len(leaves))
	for i, l := range leaves {
		sig, err := m.signalFor(l)
		if err != nil {
			return err
		}
		cell.Inputs[i] = sig
	}
	for idx := 0; idx < 1<<uint(len(leaves)); idx++ {
		cell.LUT[idx] = m.coneEval(root, leaves, idx)
	}
	// Replicate the function across unused high LUT address bits so the
	// table is well-defined for any 4-bit address.
	for idx := 1 << uint(len(leaves)); idx < 16; idx++ {
		cell.LUT[idx] = cell.LUT[idx&((1<<uint(len(leaves)))-1)]
	}
	return nil
}

// packs reports whether a flip-flop whose D input is node d computes d's
// cone in its own cell: d is a gate nothing else reads.
func (m *Mapper) packs(d netlist.NodeID) bool { return m.isGate(d) && m.fanout[d] == 1 }

// realizeGate materializes the LUT cell for a gate root (memoized).
func (m *Mapper) realizeGate(id netlist.NodeID) (CellID, error) {
	if c := m.cellOf[id]; c >= 0 {
		return c, nil
	}
	var cell Cell
	if err := m.lutOver(&cell, id); err != nil {
		return 0, err
	}
	// Realizing the cut's leaves may have come back to this gate through a
	// flip-flop and given it a cell already; the one made here replaces it
	// for every later reader.
	cell.ID = CellID(len(m.out.Cells))
	m.cellOf[id] = cell.ID
	m.out.Cells = append(m.out.Cells, cell)
	return cell.ID, nil
}

// realizeDFF materializes the registered cell for a flip-flop, packing its
// D-cone into the same cell when the cone has no other fanout.
func (m *Mapper) realizeDFF(id netlist.NodeID) (CellID, error) {
	if c := m.cellOf[id]; c >= 0 {
		return c, nil
	}
	nd := m.nl.Node(id)
	c := CellID(len(m.out.Cells))
	m.cellOf[id] = c
	m.out.Cells = append(m.out.Cells, Cell{}) // its slot, filled once the D cone is realized

	d := m.resolve(nd.Fanin[0])
	cell := Cell{ID: c, UseFF: true, FFInit: nd.Init}
	if m.packs(d) {
		// Pack the D-cone into this registered cell.
		if err := m.lutOver(&cell, d); err != nil {
			return 0, err
		}
	} else {
		sig, err := m.signalFor(d)
		if err != nil {
			return 0, err
		}
		if sig.Kind == SigConst {
			for i := range cell.LUT {
				cell.LUT[i] = sig.Const
			}
		} else {
			// Identity LUT over the D signal.
			for i := range cell.LUT {
				cell.LUT[i] = i&1 == 1
			}
			cell.Inputs = m.window(1)
			cell.Inputs[0] = sig
		}
	}
	m.out.Cells[c] = cell
	return c, nil
}

// count walks the graph realize walks, in the same order, and counts the
// cells realize will make (a gate reached again through a flip-flop while
// its cut is realized counts twice, as it is made twice) and their LUT
// inputs.
func (m *Mapper) count(id netlist.NodeID) {
	id = m.resolve(id)
	if m.cellOf[id] >= 0 {
		return
	}
	nd := m.nl.Node(id)
	switch nd.Kind {
	case netlist.KindConst, netlist.KindInput:
	case netlist.KindDFF:
		m.cellOf[id] = CellID(m.cells)
		m.cells++
		d := m.resolve(nd.Fanin[0])
		switch {
		case m.packs(d):
			m.countLeaves(m.cut[d])
		case m.nl.Node(d).Kind != netlist.KindConst:
			m.pins++ // an identity LUT over d
			m.count(d)
		}
	default:
		m.countLeaves(m.cut[id])
		m.cellOf[id] = CellID(m.cells)
		m.cells++
	}
}

func (m *Mapper) countLeaves(leaves []netlist.NodeID) {
	m.pins += len(leaves)
	for _, l := range leaves {
		m.count(l)
	}
}

// realize walks every primary output and flip-flop, materializing cells.
// A first walk counts them, so the cell table and one array of LUT inputs,
// which each cell's Inputs is a capped window of, are sized once — or not
// at all, when the last call's have room.
func (m *Mapper) realize() error {
	m.cellOf = flat.Zeroed(m.cellOf, len(m.nl.Nodes))
	forget := func() {
		for i := range m.cellOf {
			m.cellOf[i] = -1
		}
	}
	forget()
	for _, d := range m.nl.DFFs {
		m.count(d)
	}
	for _, o := range m.nl.Outputs {
		m.count(m.nl.Node(o).Fanin[0])
	}
	forget()
	m.out.Cells = slices.Grow(m.out.Cells, m.cells)
	m.inputs = flat.Zeroed(m.inputs, m.pins)
	m.free = m.inputs
	// Flip-flops first: their cells exist regardless of output reachability
	// (their state is the computation).
	for _, d := range m.nl.DFFs {
		if _, err := m.realizeDFF(d); err != nil {
			return err
		}
	}
	m.out.Outputs = slices.Grow(m.out.Outputs, len(m.nl.Outputs))
	for _, o := range m.nl.Outputs {
		sig, err := m.signalFor(m.nl.Node(o).Fanin[0])
		if err != nil {
			return err
		}
		m.out.Outputs = append(m.out.Outputs, sig)
	}
	return nil
}

// lutDepth computes the maximum combinational LUT depth of the mapped
// design (registered cell outputs are level 0 sources). It visits the
// unregistered cells in cell order, each after the unregistered cells it
// reads (realizeGate appends a cell once its leaves are realized), then
// the registered cells, whose slots realizeDFF reserves before their D
// cones.
func (m *Mapper) lutDepth() int {
	m.depth = flat.Zeroed(m.depth, len(m.out.Cells))
	depth, maxD := m.depth, 0
	for _, registered := range [2]bool{false, true} {
		for c := range m.out.Cells {
			cell := &m.out.Cells[c]
			if cell.UseFF != registered {
				continue
			}
			in := 0
			for _, s := range cell.Inputs {
				if s.Kind == SigCell && !m.out.Cells[s.Cell].UseFF {
					in = max(in, depth[s.Cell])
				}
			}
			depth[c] = in + 1
			maxD = max(maxD, depth[c])
		}
	}
	return maxD
}
