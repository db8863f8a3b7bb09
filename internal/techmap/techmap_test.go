package techmap

import (
	"runtime"
	"sort"
	"testing"

	"repro/internal/netlist"
	"repro/internal/rng"
)

// randInputs produces a deterministic random input vector.
func randInputs(src *rng.Source, n int) []bool {
	in := make([]bool, n)
	for i := range in {
		in[i] = src.Bool()
	}
	return in
}

// checkEquivalent drives the netlist simulator and the mapped simulator
// with the same stimulus and requires identical outputs. Sequential
// designs are stepped; combinational designs are evaluated.
func checkEquivalent(t *testing.T, nl *netlist.Netlist, cycles int, seed uint64) *Mapped {
	t.Helper()
	m, err := Map(nl)
	if err != nil {
		t.Fatalf("Map(%s): %v", nl.Name, err)
	}
	golden := netlist.NewSimulator(nl)
	mapped, err := NewSimulator(m)
	if err != nil {
		t.Fatalf("NewSimulator(%s): %v", nl.Name, err)
	}
	src := rng.New(seed)
	for c := 0; c < cycles; c++ {
		in := randInputs(src, nl.NumInputs())
		var want, got []bool
		if nl.IsSequential() {
			want = golden.Step(in)
			got = mapped.Step(in)
		} else {
			want = golden.Eval(in)
			got = mapped.Eval(in)
		}
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("%s cycle %d output %d (%s): mapped %v, want %v",
					nl.Name, c, i, nl.OutputNames()[i], got[i], want[i])
			}
		}
	}
	return m
}

func TestMapEquivalenceLibrary(t *testing.T) {
	names := make([]string, 0)
	reg := netlist.Registry()
	for name := range reg {
		names = append(names, name)
	}
	sort.Strings(names)
	for i, name := range names {
		name := name
		seed := uint64(i + 1)
		t.Run(name, func(t *testing.T) {
			checkEquivalent(t, reg[name](), 64, seed)
		})
	}
}

func TestMapReducesGateCount(t *testing.T) {
	// 4-LUT packing must use no more cells than source gates for any
	// realistically sized datapath (each LUT absorbs >= 1 gate).
	for _, nl := range []*netlist.Netlist{netlist.Adder(16), netlist.Multiplier(6), netlist.ALU(8)} {
		m, err := Map(nl)
		if err != nil {
			t.Fatal(err)
		}
		if m.NumCells() > nl.NumGates() {
			t.Fatalf("%s: %d cells > %d gates", nl.Name, m.NumCells(), nl.NumGates())
		}
		if m.NumCells() == 0 {
			t.Fatalf("%s mapped to zero cells", nl.Name)
		}
	}
}

func TestMapPacksAdderTightly(t *testing.T) {
	// A ripple-carry full adder bit is 5 gates; each maps into ~2 LUTs
	// (sum and carry are both 3-input functions). Expect <= 2.5 cells/bit.
	nl := netlist.Adder(16)
	m, err := Map(nl)
	if err != nil {
		t.Fatal(err)
	}
	if m.NumCells() > 40 {
		t.Fatalf("adder16 mapped to %d cells, want <= 40", m.NumCells())
	}
}

func TestFFPacking(t *testing.T) {
	// In a counter every DFF's D-cone is single-fanout XOR logic, so every
	// flip-flop should pack into a registered LUT cell: total cells should
	// be close to the FF count plus carry-chain cells.
	nl := netlist.Counter(8)
	m, err := Map(nl)
	if err != nil {
		t.Fatal(err)
	}
	if m.NumFFs() != 8 {
		t.Fatalf("counter8 mapped with %d FFs, want 8", m.NumFFs())
	}
	if m.NumCells() > 16 {
		t.Fatalf("counter8 mapped to %d cells, want <= 16 (FF packing broken?)", m.NumCells())
	}
}

func TestMappedDepthPositive(t *testing.T) {
	m, err := Map(netlist.Multiplier(4))
	if err != nil {
		t.Fatal(err)
	}
	if m.Depth <= 0 {
		t.Fatalf("depth = %d", m.Depth)
	}
	// A 4x4 array multiplier is deep: expect more than 3 LUT levels.
	if m.Depth < 3 {
		t.Fatalf("mul4 depth = %d suspiciously shallow", m.Depth)
	}
}

func TestConstantOutput(t *testing.T) {
	b := netlist.NewBuilder("const")
	b.Output("y", b.Const(true))
	b.Output("z", b.Const(false))
	nl := b.MustBuild()
	m, err := Map(nl)
	if err != nil {
		t.Fatal(err)
	}
	if m.NumCells() != 0 {
		t.Fatalf("constant outputs needed %d cells", m.NumCells())
	}
	s, err := NewSimulator(m)
	if err != nil {
		t.Fatal(err)
	}
	out := s.Eval(nil)
	if !out[0] || out[1] {
		t.Fatalf("const outputs = %v", out)
	}
}

func TestPassThroughOutput(t *testing.T) {
	b := netlist.NewBuilder("wire")
	a := b.Input("a")
	b.Output("y", b.Buf(a))
	nl := b.MustBuild()
	m, err := Map(nl)
	if err != nil {
		t.Fatal(err)
	}
	if m.NumCells() != 0 {
		t.Fatalf("wire needed %d cells", m.NumCells())
	}
	s, _ := NewSimulator(m)
	if out := s.Eval([]bool{true}); !out[0] {
		t.Fatal("wire does not pass through")
	}
}

func TestConstFedDFF(t *testing.T) {
	b := netlist.NewBuilder("constdff")
	q := b.DFF(b.Const(true), false)
	b.Output("q", q)
	nl := b.MustBuild()
	m, err := Map(nl)
	if err != nil {
		t.Fatal(err)
	}
	s, _ := NewSimulator(m)
	out := s.Step(nil) // reset value first
	if out[0] {
		t.Fatal("DFF did not start at reset value")
	}
	out = s.Step(nil)
	if !out[0] {
		t.Fatal("const-fed DFF did not latch constant")
	}
}

func TestMappedStateSaveRestore(t *testing.T) {
	nl := netlist.Counter(8)
	m, err := Map(nl)
	if err != nil {
		t.Fatal(err)
	}
	s, _ := NewSimulator(m)
	for i := 0; i < 21; i++ {
		s.Step([]bool{true})
	}
	saved := s.State()
	for i := 0; i < 9; i++ {
		s.Step([]bool{true})
	}
	s.SetState(saved)
	got := netlist.BoolsToUint(s.Eval([]bool{false}))
	if got != 21 {
		t.Fatalf("restored counter = %d, want 21", got)
	}
}

func TestMappedStateVectorMatchesNetlistCount(t *testing.T) {
	for _, nl := range []*netlist.Netlist{netlist.Counter(8), netlist.LFSR(16, []int{15, 13, 12, 10}), netlist.Accumulator(8)} {
		m, err := Map(nl)
		if err != nil {
			t.Fatal(err)
		}
		s, _ := NewSimulator(m)
		if len(s.State()) != nl.NumDFFs() {
			t.Fatalf("%s: state vector %d, want %d", nl.Name, len(s.State()), nl.NumDFFs())
		}
	}
}

func TestSetStateWrongLengthPanics(t *testing.T) {
	m, _ := Map(netlist.Counter(4))
	s, _ := NewSimulator(m)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	s.SetState([]bool{true})
}

func TestMaxCellInputsIsFour(t *testing.T) {
	for name, gen := range netlist.Registry() {
		m, err := Map(gen())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, c := range m.Cells {
			if len(c.Inputs) > 4 {
				t.Fatalf("%s: cell %d has %d inputs", name, c.ID, len(c.Inputs))
			}
		}
	}
}

func TestMapDeterministic(t *testing.T) {
	a, err := Map(netlist.ALU(8))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Map(netlist.ALU(8))
	if err != nil {
		t.Fatal(err)
	}
	if a.NumCells() != b.NumCells() || a.Depth != b.Depth {
		t.Fatal("mapping is not deterministic")
	}
	for i := range a.Cells {
		if a.Cells[i].LUT != b.Cells[i].LUT || len(a.Cells[i].Inputs) != len(b.Cells[i].Inputs) {
			t.Fatalf("cell %d differs between runs", i)
		}
	}
}

func TestStringSummaries(t *testing.T) {
	m, _ := Map(netlist.Adder(8))
	if m.String() == "" {
		t.Fatal("empty summary")
	}
}

// allocated returns the bytes and objects one call of f allocates,
// averaged over runs after a warm-up call.
func allocated(runs int, f func()) (bytes, objects float64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs), float64(after.Mallocs-before.Mallocs) / float64(runs)
}

// TestMapByteBudget holds Map to what its result needs: the cell table
// and one array of LUT inputs sized from a count, and the realized cell
// per node in a slice, not a map. The budget is 10 % over today's reading
// of mul8, 100 976 bytes in 12 objects; it read 133 160 bytes in 270
// objects while cells grew by appending, each with an input slice and a
// truth-table map of its own.
func TestMapByteBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	nl := netlist.MustLookup("mul8")
	bytes, objects := allocated(5, func() {
		if _, err := Map(nl); err != nil {
			t.Fatal(err)
		}
	})
	const readBytes, readObjects = 100_976, 12
	if bytes > 1.1*readBytes || objects > 1.1*readObjects {
		t.Errorf("Map(mul8) allocates %.0f bytes in %.0f objects, budget %.0f bytes, %.0f objects",
			bytes, objects, 1.1*readBytes, 1.1*readObjects)
	}
}

// BenchmarkMapRegistry maps every library circuit as the strip flow does,
// optimized first (outside the timer).
func BenchmarkMapRegistry(b *testing.B) {
	reg := netlist.Registry()
	names := make([]string, 0, len(reg))
	for name := range reg {
		names = append(names, name)
	}
	sort.Strings(names)
	nls := make([]*netlist.Netlist, len(names))
	for i, name := range names {
		nls[i] = netlist.Optimize(reg[name]())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, nl := range nls {
			if _, err := Map(nl); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkMapMul8(b *testing.B) {
	nl := netlist.Multiplier(8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Map(nl); err != nil {
			b.Fatal(err)
		}
	}
}
