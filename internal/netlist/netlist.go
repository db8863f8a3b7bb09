// Package netlist defines gate-level logic networks: the input to the
// technology-mapping / placement / routing flow that produces FPGA
// configurations, and the golden reference model against which the fabric
// functional simulation is checked.
//
// A Netlist is a directed graph of primitive nodes (AND/OR/XOR/NOT/MUX,
// constants, D flip-flops and ports). Combinational cycles are rejected;
// sequential behaviour arises only through DFF nodes, whose outputs act as
// sources and whose data inputs act as sinks of the combinational graph.
package netlist

import (
	"fmt"
	"slices"
	"sort"
)

// Kind enumerates the primitive node types.
type Kind int

// Primitive node kinds.
const (
	KindInput  Kind = iota // primary input port
	KindOutput             // primary output port (single fanin)
	KindConst              // constant 0/1
	KindBuf                // identity (used for port aliasing)
	KindNot
	KindAnd  // 2-input
	KindOr   // 2-input
	KindXor  // 2-input
	KindNand // 2-input
	KindNor  // 2-input
	KindMux  // 3-input: fanin[0]=sel, fanin[1]=when sel 0, fanin[2]=when sel 1
	KindDFF  // 1-input D flip-flop, posedge implicit clock
)

var kindNames = map[Kind]string{
	KindInput: "input", KindOutput: "output", KindConst: "const",
	KindBuf: "buf", KindNot: "not", KindAnd: "and", KindOr: "or",
	KindXor: "xor", KindNand: "nand", KindNor: "nor", KindMux: "mux",
	KindDFF: "dff",
}

// String returns the lowercase mnemonic for the kind.
func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Arity returns the number of fanins the kind requires, or -1 if
// unknown. Exported for the static verifier, which must re-check arity
// on netlists that never went through Builder.Build.
func (k Kind) Arity() int {
	switch k {
	case KindInput, KindConst:
		return 0
	case KindOutput, KindBuf, KindNot, KindDFF:
		return 1
	case KindAnd, KindOr, KindXor, KindNand, KindNor:
		return 2
	case KindMux:
		return 3
	}
	return -1
}

// NodeID identifies a node within one Netlist.
type NodeID int

// Node is one primitive element of the network. A netlist keeps its
// nodes' fanins back to back in an array it shares between them, not a
// slice per node: Fanin is the node's window into it, capped (cap == len)
// so an append can never reach a neighbour's fanins.
type Node struct {
	ID    NodeID
	Kind  Kind
	Fanin []NodeID
	Name  string // port name for Input/Output; optional label otherwise
	Init  bool   // Const value, or DFF reset value
}

// Netlist is an immutable gate-level network produced by a Builder.
type Netlist struct {
	Name    string
	Nodes   []Node
	Inputs  []NodeID // primary inputs in port order
	Outputs []NodeID // primary outputs in port order
	DFFs    []NodeID // all flip-flops

	topo []NodeID // combinational topological order (excludes Input/Const)
}

// NumInputs returns the number of primary input ports.
func (n *Netlist) NumInputs() int { return len(n.Inputs) }

// NumOutputs returns the number of primary output ports.
func (n *Netlist) NumOutputs() int { return len(n.Outputs) }

// NumDFFs returns the number of flip-flops.
func (n *Netlist) NumDFFs() int { return len(n.DFFs) }

// IsSequential reports whether the network contains any flip-flops.
func (n *Netlist) IsSequential() bool { return len(n.DFFs) > 0 }

// NumGates returns the number of combinational logic nodes (everything but
// ports, constants and DFFs).
func (n *Netlist) NumGates() int {
	count := 0
	for i := range n.Nodes {
		switch n.Nodes[i].Kind {
		case KindInput, KindOutput, KindConst, KindDFF:
		default:
			count++
		}
	}
	return count
}

// Node returns the node with the given id.
func (n *Netlist) Node(id NodeID) *Node { return &n.Nodes[id] }

// InputNames returns the primary input port names in port order.
func (n *Netlist) InputNames() []string {
	names := make([]string, len(n.Inputs))
	for i, id := range n.Inputs {
		names[i] = n.Nodes[id].Name
	}
	return names
}

// OutputNames returns the primary output port names in port order.
func (n *Netlist) OutputNames() []string {
	names := make([]string, len(n.Outputs))
	for i, id := range n.Outputs {
		names[i] = n.Nodes[id].Name
	}
	return names
}

// Depth returns the maximum combinational depth in gate levels, where
// inputs, constants, and DFF outputs are at level 0 and each logic gate
// adds one level. Output and Buf nodes are transparent.
func (n *Netlist) Depth() int {
	level := make([]int, len(n.Nodes))
	maxDepth := 0
	for _, id := range n.topo {
		nd := &n.Nodes[id]
		in := 0
		for _, f := range nd.Fanin {
			if level[f] > in {
				in = level[f]
			}
		}
		switch nd.Kind {
		case KindInput, KindConst, KindOutput, KindBuf, KindDFF:
			level[id] = in
		default:
			level[id] = in + 1
		}
		if level[id] > maxDepth {
			maxDepth = level[id]
		}
	}
	return maxDepth
}

// Stats summarizes a netlist for reports.
type Stats struct {
	Inputs, Outputs, Gates, DFFs, Depth int
}

// Stats returns the summary for the netlist.
func (n *Netlist) Stats() Stats {
	return Stats{
		Inputs:  len(n.Inputs),
		Outputs: len(n.Outputs),
		Gates:   n.NumGates(),
		DFFs:    len(n.DFFs),
		Depth:   n.Depth(),
	}
}

// String renders a one-line summary.
func (n *Netlist) String() string {
	s := n.Stats()
	return fmt.Sprintf("%s: %d in, %d out, %d gates, %d ffs, depth %d",
		n.Name, s.Inputs, s.Outputs, s.Gates, s.DFFs, s.Depth)
}

// numEdges returns the total fanin count over all nodes.
func (n *Netlist) numEdges() int {
	e := 0
	for i := range n.Nodes {
		e += len(n.Nodes[i].Fanin)
	}
	return e
}

// TopoOrder returns the combinational evaluation order: every non-source
// node appears after all of its combinational fanins (DFF outputs count as
// sources). The returned slice must not be modified.
func (n *Netlist) TopoOrder() []NodeID { return n.topo }

// Fanouts computes, for each node, the list of nodes that consume it.
func (n *Netlist) Fanouts() [][]NodeID {
	out := make([][]NodeID, len(n.Nodes))
	for i := range n.Nodes {
		for _, f := range n.Nodes[i].Fanin {
			out[f] = append(out[f], NodeID(i))
		}
	}
	return out
}

// checkScratch is the working arrays of a netlist check, kept by a caller
// that checks netlist after netlist (Optimizer); the zero value is ready.
type checkScratch struct {
	seen               map[string]Kind
	indeg, start, fill []int
	succs              []NodeID
}

// computeTopo builds the combinational topological order and detects
// combinational cycles. DFFs are treated as both source (their output) and
// sink (their D input), so they appear in the order but contribute no
// combinational dependency.
func (n *Netlist) computeTopo(s *checkScratch) error {
	// Combinational fanouts in CSR form: node f feeds
	// succs[start[f]:start[f+1]], consumers in id order.
	s.indeg = zeroed(s.indeg, len(n.Nodes))
	s.start = zeroed(s.start, len(n.Nodes)+1)
	indeg, start := s.indeg, s.start
	for i := range n.Nodes {
		nd := &n.Nodes[i]
		if nd.Kind == KindDFF {
			continue // D input is a sequential, not combinational, dependency
		}
		indeg[i] = len(nd.Fanin)
		for _, f := range nd.Fanin {
			start[f+1]++
		}
	}
	for i := range n.Nodes {
		start[i+1] += start[i]
	}
	s.succs = zeroed(s.succs, start[len(n.Nodes)])
	s.fill = append(s.fill[:0], start[:len(n.Nodes)]...)
	succs, fill := s.succs, s.fill
	for i := range n.Nodes {
		nd := &n.Nodes[i]
		if nd.Kind == KindDFF {
			continue
		}
		for _, f := range nd.Fanin {
			succs[fill[f]] = NodeID(i)
			fill[f]++
		}
	}
	// Kahn's algorithm with the order itself as the queue: seeded with all
	// sources in id order for determinism, read from head while successors
	// whose fanins are all ordered are appended.
	order := slices.Grow(n.topo[:0], len(n.Nodes))
	for i := range n.Nodes {
		if indeg[i] == 0 {
			order = append(order, NodeID(i))
		}
	}
	for head := 0; head < len(order); head++ {
		id := order[head]
		for _, succ := range succs[start[id]:start[id+1]] {
			indeg[succ]--
			if indeg[succ] == 0 {
				order = append(order, succ)
			}
		}
	}
	n.topo = order
	if len(n.topo) != len(n.Nodes) {
		return fmt.Errorf("netlist %q: combinational cycle detected (%d of %d nodes ordered)",
			n.Name, len(n.topo), len(n.Nodes))
	}
	return nil
}

// validate checks structural invariants: arities, fanin ranges, port
// uniqueness.
func (n *Netlist) validate(s *checkScratch) error {
	if s.seen == nil {
		s.seen = make(map[string]Kind, len(n.Inputs)+len(n.Outputs))
	} else {
		clear(s.seen)
	}
	seen := s.seen
	for i := range n.Nodes {
		nd := &n.Nodes[i]
		if nd.ID != NodeID(i) {
			return fmt.Errorf("netlist %q: node %d has mismatched id %d", n.Name, i, nd.ID)
		}
		if want := nd.Kind.Arity(); want >= 0 && len(nd.Fanin) != want {
			return fmt.Errorf("netlist %q: node %d (%v) has %d fanins, want %d",
				n.Name, i, nd.Kind, len(nd.Fanin), want)
		}
		for _, f := range nd.Fanin {
			if f < 0 || int(f) >= len(n.Nodes) {
				return fmt.Errorf("netlist %q: node %d references out-of-range fanin %d", n.Name, i, f)
			}
			if fk := n.Nodes[f].Kind; fk == KindOutput {
				return fmt.Errorf("netlist %q: node %d reads from output port %d", n.Name, i, f)
			}
		}
		if nd.Kind == KindInput || nd.Kind == KindOutput {
			if nd.Name == "" {
				return fmt.Errorf("netlist %q: unnamed port node %d", n.Name, i)
			}
			if prev, dup := seen[nd.Name]; dup && prev == nd.Kind {
				return fmt.Errorf("netlist %q: duplicate %v port %q", n.Name, nd.Kind, nd.Name)
			}
			seen[nd.Name] = nd.Kind
		}
	}
	return nil
}

// Builder incrementally constructs a Netlist. All methods return NodeIDs
// that can be used as fanins to later nodes. Build validates the result.
//
// The Builder owns one fanin array: add appends a node's fanins to it
// and hands the node a capped window, so a gate costs no allocation of
// its own and its operands never escape. When the array grows, windows
// cut earlier keep the old backing array, which stays correct — a window
// is never written through except by feedback, on its own node.
type Builder struct {
	nl    Netlist
	edges []NodeID // every node's fanins, in node order
	built bool
}

// NewBuilder returns a Builder for a netlist with the given name.
func NewBuilder(name string) *Builder {
	return &Builder{nl: Netlist{Name: name}}
}

// rebuild readies b, new or kept from an earlier rewrite, for a rewrite
// of src that keeps its ports and flip-flops and grows nothing else
// (Optimize): at most one node per source node plus the two shared
// constants, at most the source's fanin count, so no array grows by
// doubling. (A NAND folds to an AND and a NOT; append absorbs the rare
// overshoot.) The netlist b built before, if any, is overwritten.
func (b *Builder) rebuild(src *Netlist) {
	nl := &b.nl
	*nl = Netlist{
		Name:    src.Name,
		Nodes:   slices.Grow(nl.Nodes[:0], len(src.Nodes)+2),
		Inputs:  slices.Grow(nl.Inputs[:0], len(src.Inputs)),
		Outputs: slices.Grow(nl.Outputs[:0], len(src.Outputs)),
		DFFs:    slices.Grow(nl.DFFs[:0], len(src.DFFs)),
		topo:    nl.topo[:0],
	}
	b.edges = slices.Grow(b.edges[:0], src.numEdges())
	b.built = false
}

func (b *Builder) add(kind Kind, name string, init bool, fanin ...NodeID) NodeID {
	if b.built {
		panic("netlist: Builder reused after Build")
	}
	id := NodeID(len(b.nl.Nodes))
	b.nl.Nodes = append(b.nl.Nodes, Node{ID: id, Kind: kind, Fanin: b.window(fanin), Name: name, Init: init})
	return id
}

// window appends fanin to the edge array and returns the capped slice of
// it that now holds them; nil for a node without fanins.
func (b *Builder) window(fanin []NodeID) []NodeID {
	if len(fanin) == 0 {
		return nil
	}
	lo := len(b.edges)
	b.edges = append(b.edges, fanin...)
	return b.edges[lo:len(b.edges):len(b.edges)]
}

// Input declares a primary input port.
func (b *Builder) Input(name string) NodeID {
	id := b.add(KindInput, name, false)
	b.nl.Inputs = append(b.nl.Inputs, id)
	return id
}

// InputBus declares width input ports named name[0..width).
func (b *Builder) InputBus(name string, width int) []NodeID {
	ids := make([]NodeID, width)
	for i := range ids {
		ids[i] = b.Input(fmt.Sprintf("%s[%d]", name, i))
	}
	return ids
}

// Output declares a primary output port driven by src.
func (b *Builder) Output(name string, src NodeID) NodeID {
	id := b.add(KindOutput, name, false, src)
	b.nl.Outputs = append(b.nl.Outputs, id)
	return id
}

// OutputBus declares width output ports named name[0..width) driven by srcs.
func (b *Builder) OutputBus(name string, srcs []NodeID) []NodeID {
	ids := make([]NodeID, len(srcs))
	for i, s := range srcs {
		ids[i] = b.Output(fmt.Sprintf("%s[%d]", name, i), s)
	}
	return ids
}

// Const returns a constant node with the given value.
func (b *Builder) Const(v bool) NodeID { return b.add(KindConst, "", v) }

// Buf returns an identity node.
func (b *Builder) Buf(a NodeID) NodeID { return b.add(KindBuf, "", false, a) }

// Not returns the negation of a.
func (b *Builder) Not(a NodeID) NodeID { return b.add(KindNot, "", false, a) }

// And returns a AND b; variadic forms reduce left-to-right.
func (b *Builder) And(xs ...NodeID) NodeID { return b.reduce(KindAnd, xs) }

// Or returns a OR b; variadic forms reduce left-to-right.
func (b *Builder) Or(xs ...NodeID) NodeID { return b.reduce(KindOr, xs) }

// Xor returns a XOR b; variadic forms reduce left-to-right.
func (b *Builder) Xor(xs ...NodeID) NodeID { return b.reduce(KindXor, xs) }

// Nand returns NOT(a AND b).
func (b *Builder) Nand(x, y NodeID) NodeID { return b.add(KindNand, "", false, x, y) }

// Nor returns NOT(a OR b).
func (b *Builder) Nor(x, y NodeID) NodeID { return b.add(KindNor, "", false, x, y) }

// Mux returns ifZero when sel is 0, ifOne when sel is 1.
func (b *Builder) Mux(sel, ifZero, ifOne NodeID) NodeID {
	return b.add(KindMux, "", false, sel, ifZero, ifOne)
}

// DFF returns a D flip-flop sampling d on the implicit clock, with reset
// value init.
func (b *Builder) DFF(d NodeID, init bool) NodeID {
	id := b.add(KindDFF, "", init, d)
	b.nl.DFFs = append(b.nl.DFFs, id)
	return id
}

func (b *Builder) reduce(kind Kind, xs []NodeID) NodeID {
	if len(xs) == 0 {
		panic("netlist: reduction over no operands")
	}
	acc := xs[0]
	for _, x := range xs[1:] {
		acc = b.add(kind, "", false, acc, x)
	}
	return acc
}

// Build validates and freezes the netlist. The Builder must not be used
// afterwards.
func (b *Builder) Build() (*Netlist, error) {
	nl := b.freeze()
	if err := nl.check(new(checkScratch)); err != nil {
		return nil, err
	}
	return nl, nil
}

// freeze ends the build and returns the netlist as built: neither
// validated nor ordered.
func (b *Builder) freeze() *Netlist {
	if b.built {
		panic("netlist: Build called twice")
	}
	b.built = true
	return &b.nl
}

// check validates the netlist and computes its topological order in s's
// arrays.
func (n *Netlist) check(s *checkScratch) error {
	if err := n.validate(s); err != nil {
		return err
	}
	return n.computeTopo(s)
}

// zeroed returns s at length n, all zero — what make would return —
// reusing its array when it is large enough.
func zeroed[T any](s []T, n int) []T {
	s = slices.Grow(s[:0], n)[:n]
	clear(s)
	return s
}

// MustBuild is Build that panics on error; for use by the circuit library
// whose generators are structurally correct by construction.
func (b *Builder) MustBuild() *Netlist {
	nl, err := b.Build()
	if err != nil {
		panic(err)
	}
	return nl
}

// PortIndex returns the position of the named input (or output) port, or
// -1 if absent. Useful for driving simulations by port name.
func (n *Netlist) PortIndex(name string, output bool) int {
	ports := n.Inputs
	if output {
		ports = n.Outputs
	}
	for i, id := range ports {
		if n.Nodes[id].Name == name {
			return i
		}
	}
	return -1
}

// SortedPortNames returns all port names sorted, for stable debugging output.
func (n *Netlist) SortedPortNames() []string {
	names := append(n.InputNames(), n.OutputNames()...)
	sort.Strings(names)
	return names
}
