package netlist

import (
	"fmt"
	"sort"
	"testing"

	"repro/internal/rng"
)

// checkSegmented splits nl into k stages and verifies the composed
// evaluation equals the original over random stimulus.
func checkSegmented(t *testing.T, nl *Netlist, k int, seed uint64) []*Netlist {
	t.Helper()
	stages, err := Segment(nl, k)
	if err != nil {
		t.Fatalf("segment %s into %d: %v", nl.Name, k, err)
	}
	golden := NewSimulator(nl)
	src := rng.New(seed)
	for cyc := 0; cyc < 32; cyc++ {
		in := make([]bool, nl.NumInputs())
		for i := range in {
			in[i] = src.Bool()
		}
		want := golden.Eval(in)
		got := EvalSegments(stages, nl, in)
		for o := range want {
			if want[o] != got[o] {
				t.Fatalf("%s k=%d cycle %d output %d (%s): segmented %v, want %v",
					nl.Name, k, cyc, o, nl.OutputNames()[o], got[o], want[o])
			}
		}
	}
	return stages
}

func TestSegmentLibraryCircuits(t *testing.T) {
	for _, tc := range []struct {
		nl *Netlist
		k  int
	}{
		{Multiplier(6), 2},
		{Multiplier(6), 4},
		{Adder(16), 3},
		{ALU(8), 2},
		{PopCount(16), 3},
		{CLZ(16), 2},
		{SortNet4(4), 3},
	} {
		stages := checkSegmented(t, tc.nl, tc.k, 7)
		if len(stages) != tc.k {
			t.Fatalf("%s: %d stages, want %d", tc.nl.Name, len(stages), tc.k)
		}
	}
}

func TestSegmentStagesAreSmaller(t *testing.T) {
	nl := Multiplier(8)
	stages := checkSegmented(t, nl, 4, 9)
	total := 0
	for _, s := range stages {
		if s.NumGates() >= nl.NumGates() {
			t.Fatalf("stage %s as big as the whole", s.Name)
		}
		total += s.NumGates()
	}
	if total < nl.NumGates() {
		t.Fatalf("stages dropped logic: %d < %d", total, nl.NumGates())
	}
	sizes := SegmentSizes(stages)
	if len(sizes) != 4 {
		t.Fatal("sizes length")
	}
}

func TestSegmentSingleStageIsWhole(t *testing.T) {
	nl := Adder(8)
	stages, err := Segment(nl, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(stages) != 1 {
		t.Fatalf("%d stages", len(stages))
	}
	if stages[0].NumGates() != nl.NumGates() {
		t.Fatalf("gates %d vs %d", stages[0].NumGates(), nl.NumGates())
	}
	checkSegmented(t, nl, 1, 3)
}

func TestSegmentClampsToDepth(t *testing.T) {
	nl := Parity(4) // depth 3
	stages, err := Segment(nl, 50)
	if err != nil {
		t.Fatal(err)
	}
	if len(stages) > nl.Depth() {
		t.Fatalf("%d stages exceed depth %d", len(stages), nl.Depth())
	}
}

func TestSegmentRejectsSequential(t *testing.T) {
	if _, err := Segment(Counter(8), 2); err == nil {
		t.Fatal("sequential circuit segmented")
	}
}

func TestSegmentRejectsBadK(t *testing.T) {
	if _, err := Segment(Adder(4), 0); err == nil {
		t.Fatal("k=0 accepted")
	}
}

func TestSegmentRandomCircuits(t *testing.T) {
	for rep := 0; rep < 6; rep++ {
		src := rng.New(uint64(300 + rep))
		nl := Random(src, RandomConfig{Inputs: 8, Outputs: 6, Gates: 70, ConstProb: 0.1})
		for _, k := range []int{2, 3} {
			checkSegmented(t, nl, k, uint64(rep))
		}
	}
}

func TestSegmentPassThroughOutputs(t *testing.T) {
	// An output wired straight to an input must survive segmentation.
	b := NewBuilder("passthru")
	a := b.Input("a")
	c := b.Input("c")
	b.Output("y", a)
	b.Output("z", b.And(a, c))
	nl := b.MustBuild()
	checkSegmented(t, nl, 1, 5)
}

func TestSegmentBoundaryInterfaceStable(t *testing.T) {
	nl := Multiplier(6)
	a, err := Segment(nl, 3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Segment(nl, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		an, bn := sortedWireNames(a[i]), sortedWireNames(b[i])
		if len(an) != len(bn) {
			t.Fatalf("stage %d interface not deterministic", i)
		}
		for j := range an {
			if an[j] != bn[j] {
				t.Fatalf("stage %d interface differs at %d", i, j)
			}
		}
	}
}

// EvalSegments executes the stages in order, carrying boundary wires in
// an environment, and returns the values of the original circuit's
// outputs in original port order. It is the host-side composition loop a
// segmented application runs (load stage, present wires, collect wires).
func EvalSegments(stages []*Netlist, original *Netlist, inputs []bool) []bool {
	env := map[string]bool{}
	for i, id := range original.Inputs {
		env[original.Nodes[id].Name] = inputs[i]
	}
	for _, st := range stages {
		in := make([]bool, st.NumInputs())
		for i, name := range st.InputNames() {
			v, ok := env[name]
			if !ok {
				panic(fmt.Sprintf("netlist: stage %s needs undefined wire %s", st.Name, name))
			}
			in[i] = v
		}
		out := NewSimulator(st).Eval(in)
		for i, name := range st.OutputNames() {
			env[name] = out[i]
		}
	}
	res := make([]bool, len(original.Outputs))
	for i, name := range original.OutputNames() {
		v, ok := env[name]
		if !ok {
			panic(fmt.Sprintf("netlist: output %s never produced", name))
		}
		res[i] = v
	}
	return res
}

// sortedWireNames is the boundary interface of a stage.
func sortedWireNames(st *Netlist) []string {
	names := st.InputNames()
	sort.Strings(names)
	return names
}
