package techmap

import (
	"fmt"
	"sort"
)

// Simulator evaluates a Mapped design directly, giving a second reference
// model between the netlist simulator and the configured fabric: the
// compile tests check netlist == mapped == fabric behaviour.
//
//vfpgavet:ignore testonly -- the mapped-network reference model the techmap and compile tests check against
type Simulator struct {
	m     *Mapped
	order []CellID // combinational evaluation order
	vals  []bool   // per-cell current output value
	luts  []bool   // per-cell pre-register LUT value
	ffs   []bool   // per-registered-cell state, indexed by CellID
}

// NewSimulator returns a Simulator with registers at their init values.
//
//vfpgavet:ignore testonly -- constructs the reference model
func NewSimulator(m *Mapped) (*Simulator, error) {
	s := &Simulator{
		m:    m,
		vals: make([]bool, len(m.Cells)),
		luts: make([]bool, len(m.Cells)),
		ffs:  make([]bool, len(m.Cells)),
	}
	if err := s.computeOrder(); err != nil {
		return nil, err
	}
	s.Reset()
	return s, nil
}

// Reset restores every register to its init value.
func (s *Simulator) Reset() {
	for i := range s.m.Cells {
		if s.m.Cells[i].UseFF {
			s.ffs[i] = s.m.Cells[i].FFInit
		}
	}
}

// State returns the register values in cell order.
func (s *Simulator) State() []bool {
	var st []bool
	for i := range s.m.Cells {
		if s.m.Cells[i].UseFF {
			st = append(st, s.ffs[i])
		}
	}
	return st
}

// SetState restores register values captured by State.
func (s *Simulator) SetState(st []bool) {
	k := 0
	for i := range s.m.Cells {
		if s.m.Cells[i].UseFF {
			if k >= len(st) {
				panic("techmap: SetState vector too short")
			}
			s.ffs[i] = st[k]
			k++
		}
	}
	if k != len(st) {
		panic("techmap: SetState vector too long")
	}
}

func (s *Simulator) computeOrder() error {
	n := len(s.m.Cells)
	indeg := make([]int, n)
	succ := make([][]int, n)
	for i := range s.m.Cells {
		if s.m.Cells[i].UseFF {
			continue // registered cells are sources combinationally
		}
		for _, in := range s.m.Cells[i].Inputs {
			if in.Kind == SigCell && !s.m.Cells[in.Cell].UseFF {
				indeg[i]++
				succ[in.Cell] = append(succ[in.Cell], i)
			}
		}
	}
	var queue []int
	combCells := 0
	for i := 0; i < n; i++ {
		if s.m.Cells[i].UseFF {
			continue // sources; their LUTs are evaluated in a final pass
		}
		combCells++
		if indeg[i] == 0 {
			queue = append(queue, i)
		}
	}
	sort.Ints(queue)
	for len(queue) > 0 {
		i := queue[0]
		queue = queue[1:]
		s.order = append(s.order, CellID(i))
		for _, j := range succ[i] {
			indeg[j]--
			if indeg[j] == 0 {
				queue = append(queue, j)
			}
		}
	}
	if len(s.order) != combCells {
		return fmt.Errorf("techmap: mapped design %q has a combinational cycle", s.m.Name)
	}
	return nil
}

func (s *Simulator) signalValue(sig Signal, inputs []bool) bool {
	switch sig.Kind {
	case SigConst:
		return sig.Const
	case SigInput:
		return inputs[sig.Input]
	case SigCell:
		return s.vals[sig.Cell]
	}
	panic("techmap: bad signal kind")
}

func (s *Simulator) propagate(inputs []bool) {
	if len(inputs) != s.m.NumInputs {
		panic(fmt.Sprintf("techmap: %d inputs supplied, want %d", len(inputs), s.m.NumInputs))
	}
	for i := range s.m.Cells {
		if s.m.Cells[i].UseFF {
			s.vals[i] = s.ffs[i]
		}
	}
	lutOf := func(c CellID) bool {
		cell := &s.m.Cells[c]
		idx := 0
		for k, in := range cell.Inputs {
			if s.signalValue(in, inputs) {
				idx |= 1 << uint(k)
			}
		}
		return cell.LUT[idx]
	}
	for _, c := range s.order {
		s.luts[c] = lutOf(c)
		s.vals[c] = s.luts[c]
	}
	// Registered cells' next-state LUTs read settled combinational values.
	for i := range s.m.Cells {
		if s.m.Cells[i].UseFF {
			s.luts[i] = lutOf(CellID(i))
		}
	}
}

func (s *Simulator) outputs(inputs []bool) []bool {
	out := make([]bool, len(s.m.Outputs))
	for i, sig := range s.m.Outputs {
		out[i] = s.signalValue(sig, inputs)
	}
	return out
}

// Eval evaluates combinationally (registers hold) and returns the outputs.
func (s *Simulator) Eval(inputs []bool) []bool {
	s.propagate(inputs)
	return s.outputs(inputs)
}

// Step performs one clock cycle and returns the pre-edge outputs.
func (s *Simulator) Step(inputs []bool) []bool {
	s.propagate(inputs)
	out := s.outputs(inputs)
	for i := range s.m.Cells {
		if s.m.Cells[i].UseFF {
			s.ffs[i] = s.luts[i]
		}
	}
	return out
}
