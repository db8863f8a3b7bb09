package netlist

import (
	"fmt"
	"slices"
	"sort"
	"testing"

	"repro/internal/rng"
)

// checkSame drives both netlists with identical stimulus and requires
// identical outputs.
func checkSame(t *testing.T, a, b *Netlist, cycles int, seed uint64) {
	t.Helper()
	if a.NumInputs() != b.NumInputs() || a.NumOutputs() != b.NumOutputs() {
		t.Fatalf("port shape changed: %v vs %v", a.Stats(), b.Stats())
	}
	for i, n := range a.InputNames() {
		if b.InputNames()[i] != n {
			t.Fatalf("input %d renamed %q -> %q", i, n, b.InputNames()[i])
		}
	}
	sa, sb := NewSimulator(a), NewSimulator(b)
	src := rng.New(seed)
	for c := 0; c < cycles; c++ {
		in := make([]bool, a.NumInputs())
		for i := range in {
			in[i] = src.Bool()
		}
		var wa, wb []bool
		if a.IsSequential() || b.IsSequential() {
			wa, wb = sa.Step(in), sb.Step(in)
		} else {
			wa, wb = sa.Eval(in), sb.Eval(in)
		}
		for o := range wa {
			if wa[o] != wb[o] {
				t.Fatalf("cycle %d output %d differs after optimization", c, o)
			}
		}
	}
}

func TestOptimizePreservesLibrary(t *testing.T) {
	for name, gen := range Registry() {
		nl := gen()
		opt := Optimize(nl)
		checkSame(t, nl, opt, 48, 5)
		if opt.NumGates() > nl.NumGates() {
			t.Fatalf("%s: optimization grew gates %d -> %d", name, nl.NumGates(), opt.NumGates())
		}
		if opt.NumDFFs() != nl.NumDFFs() {
			t.Fatalf("%s: optimization changed FF count", name)
		}
	}
}

func TestOptimizeRandomEquivalence(t *testing.T) {
	cfgs := []RandomConfig{
		{Inputs: 6, Outputs: 4, Gates: 40, ConstProb: 0.3},
		{Inputs: 8, Outputs: 6, Gates: 80, ConstProb: 0.15, DFFProb: 0.25},
		{Inputs: 3, Outputs: 3, Gates: 20, ConstProb: 0.5},
		{Inputs: 10, Outputs: 8, Gates: 120},
	}
	for ci, cfg := range cfgs {
		for rep := 0; rep < 6; rep++ {
			src := rng.New(uint64(100*ci + rep))
			nl := Random(src, cfg)
			opt := Optimize(nl)
			checkSame(t, nl, opt, 32, uint64(rep))
		}
	}
}

func TestOptimizeFoldsConstants(t *testing.T) {
	b := NewBuilder("folds")
	a := b.Input("a")
	one := b.Const(true)
	zero := b.Const(false)
	b.Output("and1", b.And(a, one))         // = a
	b.Output("and0", b.And(a, zero))        // = 0
	b.Output("or1", b.Or(a, one))           // = 1
	b.Output("xorx", b.Xor(a, a))           // = 0
	b.Output("mux", b.Mux(one, zero, a))    // = a
	b.Output("muxsel", b.Mux(a, zero, one)) // = a
	nl := b.MustBuild()
	opt := Optimize(nl)
	checkSame(t, nl, opt, 8, 3)
	if opt.NumGates() != 0 {
		t.Fatalf("constant circuit kept %d gates", opt.NumGates())
	}
}

func TestOptimizeSharesCommonSubexpressions(t *testing.T) {
	b := NewBuilder("cse")
	x := b.Input("x")
	y := b.Input("y")
	// The same AND built twice, plus commuted: all one gate after CSE.
	b.Output("p", b.And(x, y))
	b.Output("q", b.And(x, y))
	b.Output("r", b.And(y, x))
	nl := b.MustBuild()
	opt := Optimize(nl)
	checkSame(t, nl, opt, 8, 9)
	if opt.NumGates() != 1 {
		t.Fatalf("CSE left %d gates, want 1", opt.NumGates())
	}
}

func TestOptimizeRemovesDeadLogic(t *testing.T) {
	b := NewBuilder("dead")
	x := b.Input("x")
	y := b.Input("y")
	_ = b.Xor(b.And(x, y), y) // never used
	b.Output("z", b.Not(x))
	nl := b.MustBuild()
	opt := Optimize(nl)
	if opt.NumGates() != 1 {
		t.Fatalf("dead logic survived: %d gates", opt.NumGates())
	}
	checkSame(t, nl, opt, 8, 4)
}

func TestOptimizeKeepsAllFFs(t *testing.T) {
	// A flip-flop disconnected from outputs still holds observable state.
	b := NewBuilder("hiddenstate")
	q, setD := feedback(b, false)
	setD(b.Not(q))
	x := b.Input("x")
	b.Output("y", x)
	nl := b.MustBuild()
	opt := Optimize(nl)
	if opt.NumDFFs() != 1 {
		t.Fatalf("observable state removed: %d FFs", opt.NumDFFs())
	}
	checkSame(t, nl, opt, 8, 6)
}

func TestOptimizeIdempotent(t *testing.T) {
	src := rng.New(42)
	nl := Random(src, RandomConfig{Inputs: 8, Outputs: 6, Gates: 60, ConstProb: 0.2, DFFProb: 0.2})
	once := Optimize(nl)
	twice := Optimize(once)
	if twice.NumGates() > once.NumGates() {
		t.Fatalf("second pass grew the netlist: %d -> %d", once.NumGates(), twice.NumGates())
	}
	checkSame(t, once, twice, 24, 8)
}

// sweepCopy is the copying sweep Optimize's in-place one replaced, kept as
// its reference: a new netlist of the nodes of a checked nl that the
// outputs and flip-flops read, plus the inputs, checked and ordered.
func sweepCopy(nl *Netlist) *Netlist {
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
	out := &Netlist{
		Name:    nl.Name,
		Inputs:  make([]NodeID, len(nl.Inputs)),
		Outputs: make([]NodeID, len(nl.Outputs)),
		DFFs:    make([]NodeID, len(nl.DFFs)),
	}
	remap := make([]NodeID, len(nl.Nodes))
	for i := range nl.Nodes {
		if !keep[i] {
			continue
		}
		nd := nl.Nodes[i]
		nd.ID = NodeID(len(out.Nodes))
		remap[i] = nd.ID
		nd.Fanin = append([]NodeID(nil), nd.Fanin...)
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
	if err := out.check(new(checkScratch)); err != nil {
		panic(fmt.Sprintf("netlist: sweep produced invalid netlist: %v", err))
	}
	return out
}

// TestOptimizeSweepInPlace holds Optimize's in-place sweep to the copying
// one, node for node, with the same port lists and topological order:
// over every library circuit, the stages Segment cuts from the
// combinational ones, and random netlists.
func TestOptimizeSweepInPlace(t *testing.T) {
	var names []string
	for name := range Registry() {
		names = append(names, name)
	}
	sort.Strings(names)
	var cases []*Netlist
	for _, name := range names {
		nl := MustLookup(name)
		cases = append(cases, nl)
		if nl.IsSequential() {
			continue
		}
		for _, k := range []int{2, 3} {
			stages, err := Segment(nl, k)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			cases = append(cases, stages...)
		}
	}
	for seed := uint64(0); seed < 24; seed++ {
		src := rng.New(seed)
		cases = append(cases, Random(src, RandomConfig{
			Inputs: 2 + src.Intn(8), Outputs: 1 + src.Intn(6), Gates: 10 + src.Intn(100),
			ConstProb: 0.4 * src.Float64(), DFFProb: 0.3 * src.Float64(),
		}))
	}
	swept := 0
	for _, nl := range cases {
		folded := new(Optimizer).fold(nl)
		if err := folded.check(new(checkScratch)); err != nil {
			t.Fatalf("%s: folded netlist: %v", nl.Name, err)
		}
		want := sweepCopy(folded)
		if len(want.Nodes) < len(folded.Nodes) {
			swept++
		}
		got := Optimize(nl)
		if len(got.Nodes) != len(want.Nodes) {
			t.Fatalf("%s: %d nodes after the sweep, want %d", nl.Name, len(got.Nodes), len(want.Nodes))
		}
		for i := range want.Nodes {
			g, w := &got.Nodes[i], &want.Nodes[i]
			if g.ID != w.ID || g.Kind != w.Kind || g.Name != w.Name || g.Init != w.Init || !slices.Equal(g.Fanin, w.Fanin) {
				t.Fatalf("%s: node %d = %+v, want %+v", nl.Name, i, *g, *w)
			}
		}
		for _, l := range []struct {
			what      string
			got, want []NodeID
		}{
			{"inputs", got.Inputs, want.Inputs},
			{"outputs", got.Outputs, want.Outputs},
			{"flip-flops", got.DFFs, want.DFFs},
			{"topological order", got.TopoOrder(), want.TopoOrder()},
		} {
			if !slices.Equal(l.got, l.want) {
				t.Fatalf("%s: %s %v, want %v", nl.Name, l.what, l.got, l.want)
			}
		}
	}
	if swept == 0 {
		t.Fatal("no case had logic to sweep")
	}
	t.Logf("%d netlists, %d with logic to sweep", len(cases), swept)
}

func TestOptimizeMuxIdentities(t *testing.T) {
	b := NewBuilder("muxid")
	s := b.Input("s")
	a := b.Input("a")
	b.Output("same", b.Mux(s, a, a)) // = a regardless of s
	nl := b.MustBuild()
	opt := Optimize(nl)
	if opt.NumGates() != 0 {
		t.Fatalf("mux(s,a,a) not collapsed: %d gates", opt.NumGates())
	}
	checkSame(t, nl, opt, 8, 7)
}

func TestRandomNetlistShapes(t *testing.T) {
	src := rng.New(1)
	nl := Random(src, RandomConfig{Inputs: 5, Outputs: 4, Gates: 30, DFFProb: 0.3})
	if nl.NumInputs() != 5 || nl.NumOutputs() != 4 {
		t.Fatalf("ports %d/%d", nl.NumInputs(), nl.NumOutputs())
	}
	if !nl.IsSequential() {
		t.Fatal("DFFProb 0.3 produced no flip-flops")
	}
	// Degenerate configs are clamped.
	tiny := Random(rng.New(2), RandomConfig{})
	if tiny.NumInputs() != 1 || tiny.NumOutputs() != 1 {
		t.Fatal("clamping failed")
	}
}

func TestOptimizeReducesConstHeavyCircuits(t *testing.T) {
	src := rng.New(11)
	nl := Random(src, RandomConfig{Inputs: 6, Outputs: 4, Gates: 100, ConstProb: 0.4})
	opt := Optimize(nl)
	if opt.NumGates() >= nl.NumGates() {
		t.Fatalf("no reduction on const-heavy circuit: %d -> %d", nl.NumGates(), opt.NumGates())
	}
	// Typically the reduction is drastic.
	if float64(opt.NumGates()) > 0.8*float64(nl.NumGates()) {
		t.Logf("weak reduction: %d -> %d", nl.NumGates(), opt.NumGates())
	}
}
