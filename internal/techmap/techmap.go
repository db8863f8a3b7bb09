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
	Name        string
	Cells       []Cell
	NumInputs   int
	Outputs     []Signal // one per primary output, in port order
	InputNames  []string
	OutputNames []string
	// Depth is the maximum number of LUTs on any combinational path.
	Depth int
}

// NumCells returns the CLB count of the mapped design — its area.
func (m *Mapped) NumCells() int { return len(m.Cells) }

// NumFFs returns the number of registered cells.
func (m *Mapped) NumFFs() int {
	n := 0
	for i := range m.Cells {
		if m.Cells[i].UseFF {
			n++
		}
	}
	return n
}

// String renders a one-line summary.
func (m *Mapped) String() string {
	return fmt.Sprintf("%s: %d cells (%d registered), %d in, %d out, lut-depth %d",
		m.Name, m.NumCells(), m.NumFFs(), m.NumInputs, len(m.Outputs), m.Depth)
}

// mapper carries the per-run state of one Map invocation.
type mapper struct {
	nl     *netlist.Netlist
	fanout []int                     // resolved fanout count per node
	cut    [][]netlist.NodeID        // chosen cut per gate node, indexed by NodeID
	cellOf map[netlist.NodeID]CellID // realized cell per root node
	out    *Mapped
}

// Map lowers nl onto 4-LUT cells. It returns an error if any node needs a
// cut wider than the LUT (cannot happen with the primitive set, whose
// maximum arity is 3) or the netlist is malformed.
func Map(nl *netlist.Netlist) (*Mapped, error) {
	m := &mapper{
		nl:     nl,
		cellOf: make(map[netlist.NodeID]CellID),
		out: &Mapped{
			Name:        nl.Name,
			NumInputs:   nl.NumInputs(),
			InputNames:  nl.InputNames(),
			OutputNames: nl.OutputNames(),
		},
	}
	m.countFanouts()
	m.chooseCuts()
	if err := m.realize(); err != nil {
		return nil, err
	}
	m.out.Depth = m.lutDepth()
	return m.out, nil
}

// resolve follows Buf and Output nodes to the node that actually produces
// the value.
func (m *mapper) resolve(id netlist.NodeID) netlist.NodeID {
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
func (m *mapper) isGate(id netlist.NodeID) bool {
	switch m.nl.Node(id).Kind {
	case netlist.KindInput, netlist.KindOutput, netlist.KindConst,
		netlist.KindBuf, netlist.KindDFF:
		return false
	}
	return true
}

// countFanouts counts, per node, the number of distinct logical consumers
// after resolving bufs: gate fanins, DFF D inputs, and primary outputs.
func (m *mapper) countFanouts() {
	m.fanout = make([]int, len(m.nl.Nodes))
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
func (m *mapper) addLeaves(dst []netlist.NodeID, leaves []netlist.NodeID) []netlist.NodeID {
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
func (m *mapper) chooseCuts() {
	order := m.nl.TopoOrder()
	m.cut = make([][]netlist.NodeID, len(m.nl.Nodes))
	// Every chosen cut is a slice of store, which is sized for the worst
	// case so it never moves. Candidates are built in the leaves scratch
	// (an unpruned candidate holds up to maxArity whole cuts) and only the
	// best so far is copied out, over the one it beats.
	store := make([]netlist.NodeID, 0, 4*len(order))
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
}

// coneEval evaluates node id under the given assignment of values to the
// cut leaves (and implicit constant folding).
func (m *mapper) coneEval(id netlist.NodeID, leafVal map[netlist.NodeID]bool) bool {
	id = m.resolve(id)
	if v, ok := leafVal[id]; ok {
		return v
	}
	nd := m.nl.Node(id)
	switch nd.Kind {
	case netlist.KindConst:
		return nd.Init
	case netlist.KindNot:
		return !m.coneEval(nd.Fanin[0], leafVal)
	case netlist.KindAnd:
		return m.coneEval(nd.Fanin[0], leafVal) && m.coneEval(nd.Fanin[1], leafVal)
	case netlist.KindOr:
		return m.coneEval(nd.Fanin[0], leafVal) || m.coneEval(nd.Fanin[1], leafVal)
	case netlist.KindXor:
		return m.coneEval(nd.Fanin[0], leafVal) != m.coneEval(nd.Fanin[1], leafVal)
	case netlist.KindNand:
		return !(m.coneEval(nd.Fanin[0], leafVal) && m.coneEval(nd.Fanin[1], leafVal))
	case netlist.KindNor:
		return !(m.coneEval(nd.Fanin[0], leafVal) || m.coneEval(nd.Fanin[1], leafVal))
	case netlist.KindMux:
		if m.coneEval(nd.Fanin[0], leafVal) {
			return m.coneEval(nd.Fanin[2], leafVal)
		}
		return m.coneEval(nd.Fanin[1], leafVal)
	}
	panic(fmt.Sprintf("techmap: cone evaluation reached %v node %d outside its cut", nd.Kind, id))
}

// signalFor returns (realizing if necessary) the mapped signal carrying
// the value of node id.
func (m *mapper) signalFor(id netlist.NodeID) (Signal, error) {
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

// lutOver builds the truth table and input signals for the cone rooted at
// root with the given cut leaves.
func (m *mapper) lutOver(root netlist.NodeID, leaves []netlist.NodeID) (lut [16]bool, inputs []Signal, err error) {
	if len(leaves) > 4 {
		return lut, nil, fmt.Errorf("techmap: cut of %d leaves at node %d", len(leaves), root)
	}
	inputs = make([]Signal, len(leaves))
	for i, l := range leaves {
		inputs[i], err = m.signalFor(l)
		if err != nil {
			return lut, nil, err
		}
	}
	leafVal := make(map[netlist.NodeID]bool, len(leaves))
	for idx := 0; idx < 1<<uint(len(leaves)); idx++ {
		for i, l := range leaves {
			leafVal[l] = idx&(1<<uint(i)) != 0
		}
		lut[idx] = m.coneEval(root, leafVal)
	}
	// Replicate the function across unused high LUT address bits so the
	// table is well-defined for any 4-bit address.
	for idx := 1 << uint(len(leaves)); idx < 16; idx++ {
		lut[idx] = lut[idx&((1<<uint(len(leaves)))-1)]
	}
	return lut, inputs, nil
}

// realizeGate materializes the LUT cell for a gate root (memoized).
func (m *mapper) realizeGate(id netlist.NodeID) (CellID, error) {
	if c, ok := m.cellOf[id]; ok {
		return c, nil
	}
	lut, inputs, err := m.lutOver(id, m.cut[id])
	if err != nil {
		return 0, err
	}
	c := CellID(len(m.out.Cells))
	m.cellOf[id] = c
	m.out.Cells = append(m.out.Cells, Cell{ID: c, LUT: lut, Inputs: inputs})
	return c, nil
}

// realizeDFF materializes the registered cell for a flip-flop, packing its
// D-cone into the same cell when the cone has no other fanout.
func (m *mapper) realizeDFF(id netlist.NodeID) (CellID, error) {
	if c, ok := m.cellOf[id]; ok {
		return c, nil
	}
	nd := m.nl.Node(id)
	c := CellID(len(m.out.Cells))
	m.cellOf[id] = c
	m.out.Cells = append(m.out.Cells, Cell{ID: c, UseFF: true, FFInit: nd.Init})

	d := m.resolve(nd.Fanin[0])
	var lut [16]bool
	var inputs []Signal
	var err error
	if m.isGate(d) && m.fanout[d] == 1 {
		// Pack the D-cone into this registered cell.
		lut, inputs, err = m.lutOver(d, m.cut[d])
	} else {
		// Identity LUT over the D signal.
		var sig Signal
		sig, err = m.signalFor(d)
		if err == nil {
			switch sig.Kind {
			case SigConst:
				for i := range lut {
					lut[i] = sig.Const
				}
				inputs = nil
			default:
				for i := range lut {
					lut[i] = i&1 == 1
				}
				inputs = []Signal{sig}
			}
		}
	}
	if err != nil {
		return 0, err
	}
	cell := &m.out.Cells[c]
	cell.LUT = lut
	cell.Inputs = inputs
	return c, nil
}

// realize walks every primary output and flip-flop, materializing cells.
func (m *mapper) realize() error {
	// Flip-flops first: their cells exist regardless of output reachability
	// (their state is the computation).
	for _, d := range m.nl.DFFs {
		if _, err := m.realizeDFF(d); err != nil {
			return err
		}
	}
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
// design (registered cell outputs are level 0 sources).
func (m *mapper) lutDepth() int {
	memo := make([]int, len(m.out.Cells))
	state := make([]uint8, len(m.out.Cells)) // 0 unvisited, 1 visiting, 2 done
	var depth func(c CellID) int
	depth = func(c CellID) int {
		if state[c] == 2 {
			return memo[c]
		}
		if state[c] == 1 {
			return 0 // cycle through registered cells only; treated as source
		}
		state[c] = 1
		cell := &m.out.Cells[c]
		in := 0
		for _, s := range cell.Inputs {
			if s.Kind == SigCell && !m.out.Cells[s.Cell].UseFF {
				if d := depth(s.Cell); d > in {
					in = d
				}
			}
		}
		d := in + 1
		memo[c] = d
		state[c] = 2
		return d
	}
	maxD := 0
	for i := range m.out.Cells {
		if d := depth(CellID(i)); d > maxD {
			maxD = d
		}
	}
	return maxD
}
