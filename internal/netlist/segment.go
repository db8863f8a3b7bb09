package netlist

import "fmt"

// Segment decomposes a combinational netlist into k self-contained
// stages — the paper's §2 segmentation: "decomposes the function to be
// downloaded in the FPGA into smaller parts computing a self-contained
// sub-function and, as a consequence, having variable size".
//
// Gates are assigned to stages by logic level, so every wire crosses
// stage boundaries forward only. Signals that cross a boundary become an
// output port of the producing stage and an input port of each consuming
// stage, named "w<id>" after the original node; primary ports keep their
// names. The host (or the VFPGA manager) carries the wire values between
// stage executions, loading one stage at a time.
//
// Sequential netlists cannot be segmented this way (state would straddle
// stages); Segment returns an error for them.
func Segment(nl *Netlist, k int) ([]*Netlist, error) {
	if nl.IsSequential() {
		return nil, fmt.Errorf("netlist: cannot segment sequential circuit %q", nl.Name)
	}
	if k <= 0 {
		return nil, fmt.Errorf("netlist: segment count %d", k)
	}
	depth := nl.Depth()
	if depth == 0 {
		k = 1 // pure wiring: one stage
	}
	if k > depth && depth > 0 {
		k = depth
	}

	// Level per node (inputs/consts at 0, each gate one deeper).
	level := make([]int, len(nl.Nodes))
	for _, id := range nl.TopoOrder() {
		nd := &nl.Nodes[id]
		in := 0
		for _, f := range nd.Fanin {
			if level[f] > in {
				in = level[f]
			}
		}
		switch nd.Kind {
		case KindInput, KindConst, KindOutput, KindBuf:
			level[id] = in
		default:
			level[id] = in + 1
		}
	}
	stageOf := func(id NodeID) int {
		if depth == 0 {
			return 0
		}
		s := (level[id] - 1) * k / depth
		if s < 0 {
			s = 0
		}
		if s >= k {
			s = k - 1
		}
		return s
	}

	// resolve follows Buf/Output to the producing node.
	var resolve func(id NodeID) NodeID
	resolve = func(id NodeID) NodeID {
		nd := &nl.Nodes[id]
		if nd.Kind == KindBuf || nd.Kind == KindOutput {
			return resolve(nd.Fanin[0])
		}
		return id
	}
	isGate := func(id NodeID) bool {
		switch nl.Nodes[id].Kind {
		case KindInput, KindConst, KindOutput, KindBuf, KindDFF:
			return false
		}
		return true
	}

	// The latest stage that consumes each producing node, -1 for none: a
	// producer exports a wire exactly when a later stage reads it.
	// (Primary outputs are emitted under their own port names below, not
	// as wires, so they do not count.)
	latest := make([]int, len(nl.Nodes))
	for i := range latest {
		latest[i] = -1
	}
	for i := range nl.Nodes {
		if !isGate(NodeID(i)) {
			continue
		}
		s := stageOf(NodeID(i))
		for _, f := range nl.Nodes[i].Fanin {
			if p := resolve(f); s > latest[p] {
				latest[p] = s
			}
		}
	}

	stages := make([]*Builder, k)
	for s := range stages {
		stages[s] = NewBuilder(fmt.Sprintf("%s_seg%dof%d", nl.Name, s+1, k))
	}
	// localID[s][orig] = node id of orig's value within stage s.
	localID := make([]map[NodeID]NodeID, k)
	for s := range localID {
		localID[s] = map[NodeID]NodeID{}
	}
	wireName := func(id NodeID) string { return fmt.Sprintf("w%d", id) }

	// valueIn returns (importing if needed) node orig's value in stage s.
	var valueIn func(s int, orig NodeID) NodeID
	valueIn = func(s int, orig NodeID) NodeID {
		orig = resolve(orig)
		if id, ok := localID[s][orig]; ok {
			return id
		}
		b := stages[s]
		nd := &nl.Nodes[orig]
		var id NodeID
		switch {
		case nd.Kind == KindConst:
			id = b.Const(nd.Init)
		case nd.Kind == KindInput:
			id = b.Input(nd.Name)
		default: // a gate from an earlier stage: import as a wire port
			if stageOf(orig) >= s {
				panic(fmt.Sprintf("netlist: segment %d imports node %d of stage %d", s, orig, stageOf(orig)))
			}
			id = b.Input(wireName(orig))
		}
		localID[s][orig] = id
		return id
	}

	// Build gates stage by stage in global topological order.
	for _, id := range nl.TopoOrder() {
		if !isGate(id) {
			continue
		}
		s := stageOf(id)
		b := stages[s]
		nd := &nl.Nodes[id]
		var buf [3]NodeID // a gate has at most three fanins
		fan := buf[:len(nd.Fanin)]
		for i, f := range nd.Fanin {
			fan[i] = valueIn(s, f)
		}
		var local NodeID
		switch nd.Kind {
		case KindNot:
			local = b.Not(fan[0])
		case KindAnd:
			local = b.And(fan[0], fan[1])
		case KindOr:
			local = b.Or(fan[0], fan[1])
		case KindXor:
			local = b.Xor(fan[0], fan[1])
		case KindNand:
			local = b.Nand(fan[0], fan[1])
		case KindNor:
			local = b.Nor(fan[0], fan[1])
		case KindMux:
			local = b.Mux(fan[0], fan[1], fan[2])
		default:
			return nil, fmt.Errorf("netlist: cannot segment %v node", nd.Kind)
		}
		localID[s][id] = local
	}

	// Export boundary wires: a gate read by a later stage becomes an
	// output port of its own stage (inputs and constants are imported
	// directly, never exported). Producers are visited in id order so
	// stage port order (and hence downstream placement) is deterministic.
	for i := range nl.Nodes {
		p := NodeID(i)
		if ps := stageOf(p); isGate(p) && latest[p] > ps {
			stages[ps].Output(wireName(p), localID[ps][p])
		}
	}
	// Primary outputs: emitted by the stage producing their driver (or,
	// for input/const-driven outputs, by stage 0).
	for _, o := range nl.Outputs {
		driver := resolve(nl.Nodes[o].Fanin[0])
		s := 0
		if isGate(driver) {
			s = stageOf(driver)
		}
		stages[s].Output(nl.Nodes[o].Name, valueIn(s, driver))
	}

	out := make([]*Netlist, k)
	for s := range stages {
		var err error
		out[s], err = stages[s].Build()
		if err != nil {
			return nil, fmt.Errorf("netlist: segment %d: %w", s, err)
		}
	}
	return out, nil
}

// SegmentSizes reports the gate count of each stage, sorted by stage.
func SegmentSizes(stages []*Netlist) []int {
	sizes := make([]int, len(stages))
	for i, s := range stages {
		sizes[i] = s.NumGates()
	}
	return sizes
}
