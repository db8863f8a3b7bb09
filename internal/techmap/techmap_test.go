package techmap

import (
	"fmt"
	"reflect"
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
	ffs := 0
	for _, c := range m.Cells {
		if c.UseFF {
			ffs++
		}
	}
	if ffs != 8 {
		t.Fatalf("counter8 mapped with %d FFs, want 8", ffs)
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

// TestMapperResultOwnership holds a Mapper to its contract: each call
// overwrites the one Mapped the first call made, and what it leaves there
// is what a new Mapper returns, whichever design ran before — larger, with
// more outputs, or smaller. Package-level calls share nothing: a result
// outlives any later call.
func TestMapperResultOwnership(t *testing.T) {
	mustMap := func(mp *Mapper, name string) *Mapped {
		t.Helper()
		m, err := mp.Map(netlist.MustLookup(name))
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	var mp Mapper
	first := mustMap(&mp, "mul8")
	for _, name := range []string{"alu8", "counter8", "mul8", "parity16"} {
		got := mustMap(&mp, name)
		if got != first {
			t.Fatalf("%s: a second call on one Mapper returned a new Mapped", name)
		}
		if want := mustMap(new(Mapper), name); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: a reused Mapper's result differs from a new one's", name)
		}
	}

	a, err := Map(netlist.MustLookup("alu8"))
	if err != nil {
		t.Fatal(err)
	}
	before := mustMap(new(Mapper), "alu8")
	if b, err := Map(netlist.MustLookup("mul8")); err != nil || b == a {
		t.Fatalf("two package-level calls returned one Mapped (err %v)", err)
	}
	if !reflect.DeepEqual(a, before) {
		t.Fatal("a package-level result changed under a later call")
	}
}

// depthRecursive is the memoized recursion lutDepth replaced, kept as its
// reference: a cell's depth is one more than the deepest unregistered
// cell it reads, found by following inputs in whatever order cells come.
func depthRecursive(m *Mapped) int {
	memo := make([]int, len(m.Cells))
	state := make([]uint8, len(m.Cells)) // 0 unvisited, 1 visiting, 2 done
	var depth func(c CellID) int
	depth = func(c CellID) int {
		if state[c] == 2 {
			return memo[c]
		}
		if state[c] == 1 {
			return 0 // cycle through registered cells only; treated as source
		}
		state[c] = 1
		in := 0
		for _, s := range m.Cells[c].Inputs {
			if s.Kind == SigCell && !m.Cells[s.Cell].UseFF {
				in = max(in, depth(s.Cell))
			}
		}
		memo[c], state[c] = in+1, 2
		return in + 1
	}
	maxD := 0
	for c := range m.Cells {
		maxD = max(maxD, depth(CellID(c)))
	}
	return maxD
}

// eachMapped calls f with every library circuit mapped optimized and raw,
// then with 500 random designs that hold flip-flops.
func eachMapped(t *testing.T, f func(name string, m *Mapped)) {
	t.Helper()
	reg := netlist.Registry()
	names := make([]string, 0, len(reg))
	for name := range reg {
		names = append(names, name)
	}
	sort.Strings(names)
	var mp Mapper
	mapped := func(nl *netlist.Netlist) *Mapped {
		t.Helper()
		m, err := mp.Map(nl)
		if err != nil {
			t.Fatalf("Map(%s): %v", nl.Name, err)
		}
		return m
	}
	for _, name := range names {
		f(name, mapped(netlist.Optimize(reg[name]())))
		f(name+" (raw)", mapped(reg[name]()))
	}
	src := rng.New(49)
	for i := 0; i < 500; i++ {
		nl := netlist.Random(src, netlist.RandomConfig{
			Inputs:    src.Intn(8) + 1,
			Outputs:   src.Intn(6) + 1,
			Gates:     src.Intn(60) + 5,
			DFFProb:   0.05 + 0.4*src.Float64(),
			ConstProb: 0.1 * src.Float64(),
		})
		f(fmt.Sprintf("random %d", i), mapped(nl))
	}
}

// TestCellOrderCombinational pins the order lutDepth and the router's
// critical path walk forward: every unregistered cell reads only
// unregistered cells with lower ids. A registered cell may read any cell.
func TestCellOrderCombinational(t *testing.T) {
	registered := 0
	eachMapped(t, func(name string, m *Mapped) {
		for c := range m.Cells {
			if m.Cells[c].UseFF {
				registered++
				continue
			}
			for _, s := range m.Cells[c].Inputs {
				if s.Kind == SigCell && !m.Cells[s.Cell].UseFF && int(s.Cell) >= c {
					t.Fatalf("%s: unregistered cell %d reads unregistered cell %d", name, c, s.Cell)
				}
			}
		}
	})
	if registered == 0 {
		t.Fatal("no design holds a registered cell")
	}
}

// TestLutDepthMatchesRecursion holds the two forward passes to the
// recursion they replaced.
func TestLutDepthMatchesRecursion(t *testing.T) {
	eachMapped(t, func(name string, m *Mapped) {
		if want := depthRecursive(m); m.Depth != want {
			t.Fatalf("%s: depth %d, the recursion finds %d", name, m.Depth, want)
		}
	})
}
