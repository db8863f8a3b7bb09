package netlist

import "fmt"

// Simulator evaluates a Netlist at the gate level. It is the golden
// reference model: the FPGA fabric's functional simulation of a compiled
// circuit is checked against it in the compile tests.
//
// For combinational networks, call Eval. For sequential networks, call
// Step once per clock cycle; DFF state is held between steps and can be
// read and written (mirroring the paper's observability/controllability
// requirement for preemptable sequential circuits).
//
//vfpgavet:ignore testonly -- the gate-level reference model the netlist, techmap and compile tests check against
type Simulator struct {
	nl     *Netlist
	values []bool // per-node current value
	state  []bool // per-DFF latched value, parallel to nl.DFFs
}

// NewSimulator returns a Simulator with all flip-flops at their reset
// values.
//
//vfpgavet:ignore testonly -- constructs the reference model
func NewSimulator(nl *Netlist) *Simulator {
	s := &Simulator{
		nl:     nl,
		values: make([]bool, len(nl.Nodes)),
		state:  make([]bool, len(nl.DFFs)),
	}
	s.Reset()
	return s
}

// Reset restores every flip-flop to its reset value.
func (s *Simulator) Reset() {
	for i, id := range s.nl.DFFs {
		s.state[i] = s.nl.Nodes[id].Init
	}
}

// State returns a copy of the flip-flop state vector, ordered as nl.DFFs.
func (s *Simulator) State() []bool {
	return append([]bool(nil), s.state...)
}

// SetState overwrites the flip-flop state vector. It panics if the length
// does not match the number of DFFs.
func (s *Simulator) SetState(state []bool) {
	if len(state) != len(s.state) {
		panic(fmt.Sprintf("netlist: SetState with %d values for %d DFFs", len(state), len(s.state)))
	}
	copy(s.state, state)
}

// propagate computes all node values from the given primary inputs and the
// current DFF state.
func (s *Simulator) propagate(inputs []bool) {
	if len(inputs) != len(s.nl.Inputs) {
		panic(fmt.Sprintf("netlist %q: %d inputs supplied, want %d",
			s.nl.Name, len(inputs), len(s.nl.Inputs)))
	}
	for i, id := range s.nl.Inputs {
		s.values[id] = inputs[i]
	}
	for i, id := range s.nl.DFFs {
		s.values[id] = s.state[i]
	}
	v := s.values
	for _, id := range s.nl.TopoOrder() {
		nd := &s.nl.Nodes[id]
		switch nd.Kind {
		case KindInput, KindDFF:
			// already set
		case KindConst:
			v[id] = nd.Init
		case KindOutput, KindBuf:
			v[id] = v[nd.Fanin[0]]
		case KindNot:
			v[id] = !v[nd.Fanin[0]]
		case KindAnd:
			v[id] = v[nd.Fanin[0]] && v[nd.Fanin[1]]
		case KindOr:
			v[id] = v[nd.Fanin[0]] || v[nd.Fanin[1]]
		case KindXor:
			v[id] = v[nd.Fanin[0]] != v[nd.Fanin[1]]
		case KindNand:
			v[id] = !(v[nd.Fanin[0]] && v[nd.Fanin[1]])
		case KindNor:
			v[id] = !(v[nd.Fanin[0]] || v[nd.Fanin[1]])
		case KindMux:
			if v[nd.Fanin[0]] {
				v[id] = v[nd.Fanin[2]]
			} else {
				v[id] = v[nd.Fanin[1]]
			}
		default:
			panic(fmt.Sprintf("netlist: unknown kind %v", nd.Kind))
		}
	}
}

func (s *Simulator) outputs() []bool {
	out := make([]bool, len(s.nl.Outputs))
	for i, id := range s.nl.Outputs {
		out[i] = s.values[id]
	}
	return out
}

// Eval evaluates the network combinationally (using current DFF state for
// any flip-flop outputs, without latching new state) and returns the
// primary outputs in port order.
func (s *Simulator) Eval(inputs []bool) []bool {
	s.propagate(inputs)
	return s.outputs()
}

// Step performs one clock cycle: it propagates inputs, returns the outputs
// observed before the clock edge, then latches every DFF's D input.
func (s *Simulator) Step(inputs []bool) []bool {
	s.propagate(inputs)
	out := s.outputs()
	for i, id := range s.nl.DFFs {
		s.state[i] = s.values[s.nl.Nodes[id].Fanin[0]]
	}
	return out
}

// Run applies a sequence of input vectors, one per cycle, and returns the
// per-cycle outputs.
func (s *Simulator) Run(inputSeq [][]bool) [][]bool {
	out := make([][]bool, len(inputSeq))
	for i, in := range inputSeq {
		out[i] = s.Step(in)
	}
	return out
}

// BoolsToUint packs a little-endian bit vector into a uint64. Bits beyond
// 64 are ignored.
//
//vfpgavet:ignore testonly -- vector packing the reference-model tests of netlist, techmap and compile share
func BoolsToUint(bits []bool) uint64 {
	var v uint64
	for i, b := range bits {
		if i >= 64 {
			break
		}
		if b {
			v |= 1 << uint(i)
		}
	}
	return v
}

// UintToBools unpacks the low width bits of v into a little-endian bit
// vector.
//
//vfpgavet:ignore testonly -- vector unpacking the reference-model tests of netlist, techmap and compile share
func UintToBools(v uint64, width int) []bool {
	bits := make([]bool, width)
	for i := 0; i < width && i < 64; i++ {
		bits[i] = v&(1<<uint(i)) != 0
	}
	return bits
}
