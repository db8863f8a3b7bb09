package compile

import (
	"bytes"
	"runtime"
	"sort"
	"testing"

	"repro/internal/bitstream"
	"repro/internal/fabric"
	"repro/internal/lint"
	"repro/internal/netlist"
	"repro/internal/rng"
	"repro/internal/sim"
)

// loadAt applies a compiled circuit at the given origin, binding its ports
// to consecutive device pins starting at pinBase. It returns the binding.
func loadAt(t *testing.T, dev *fabric.Device, c *Circuit, ox, oy, pinBase int) *bitstream.PinBinding {
	t.Helper()
	binding := &bitstream.PinBinding{}
	p := pinBase
	for i := 0; i < c.BS.NumIn; i++ {
		binding.In = append(binding.In, p)
		p++
	}
	for i := 0; i < c.BS.NumOut; i++ {
		binding.Out = append(binding.Out, p)
		p++
	}
	if _, _, err := c.BS.Apply(dev, ox, oy, binding); err != nil {
		t.Fatalf("apply %s: %v", c.Name, err)
	}
	// Every configuration the tests download must pass the device's
	// check: no dangling sources, no config loops.
	if err := dev.Check(); err != nil {
		t.Fatalf("device after loading %s: %v", c.Name, err)
	}
	return binding
}

// driveEqual checks that the device region computes the same function as
// the netlist golden model over random stimulus.
func driveEqual(t *testing.T, dev *fabric.Device, c *Circuit, binding *bitstream.PinBinding, cycles int, seed uint64) {
	t.Helper()
	golden := netlist.NewSimulator(c.Netlist)
	src := rng.New(seed)
	for cyc := 0; cyc < cycles; cyc++ {
		in := make([]bool, c.BS.NumIn)
		for i := range in {
			in[i] = src.Bool()
			dev.SetPin(binding.In[i], in[i])
		}
		var want []bool
		var got map[int]bool
		var err error
		if c.Sequential {
			want = golden.Step(in)
			got, err = dev.Step()
		} else {
			want = golden.Eval(in)
			got, err = dev.Eval()
		}
		if err != nil {
			t.Fatalf("%s cycle %d: %v", c.Name, cyc, err)
		}
		for o := range want {
			if got[binding.Out[o]] != want[o] {
				t.Fatalf("%s cycle %d output %d (%s): fabric %v, want %v",
					c.Name, cyc, o, c.Netlist.OutputNames()[o], got[binding.Out[o]], want[o])
			}
		}
	}
}

func TestCompileAndRunOnFabric(t *testing.T) {
	reg := netlist.Registry()
	// A representative slice of the library: combinational datapaths,
	// wide fanin, deep logic, and sequential machines.
	names := []string{"adder16", "mul4", "alu8", "popcount16", "rotl8",
		"counter8", "lfsr16", "crc8", "acc8", "shreg16", "cmp16", "prienc8"}
	for i, name := range names {
		name := name
		seed := uint64(100 + i)
		t.Run(name, func(t *testing.T) {
			c, err := Compile(reg[name](), Options{Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			dev := fabric.NewDevice(fabric.DefaultGeometry())
			binding := loadAt(t, dev, c, 0, 0, 0)
			driveEqual(t, dev, c, binding, 48, seed)
		})
	}
}

func TestRelocationPreservesFunction(t *testing.T) {
	// The same bitstream loaded at two different origins simultaneously
	// must compute correctly at both — the relocatability property that
	// variable partitioning and garbage collection rely on.
	c := MustCompile(netlist.Adder(8), Options{Seed: 9})
	dev := fabric.NewDevice(fabric.DefaultGeometry())
	b1 := loadAt(t, dev, c, 0, 0, 0)
	ox := c.BS.W + 2
	oy := c.BS.H + 3
	b2 := loadAt(t, dev, c, ox, oy, 64)

	golden := netlist.NewSimulator(c.Netlist)
	src := rng.New(17)
	for cyc := 0; cyc < 32; cyc++ {
		in1 := make([]bool, c.BS.NumIn)
		in2 := make([]bool, c.BS.NumIn)
		for i := range in1 {
			in1[i] = src.Bool()
			in2[i] = src.Bool()
			dev.SetPin(b1.In[i], in1[i])
			dev.SetPin(b2.In[i], in2[i])
		}
		got, err := dev.Eval()
		if err != nil {
			t.Fatal(err)
		}
		want1 := golden.Eval(in1)
		want2 := golden.Eval(in2)
		for o := range want1 {
			if got[b1.Out[o]] != want1[o] {
				t.Fatalf("copy 1 output %d wrong at cycle %d", o, cyc)
			}
			if got[b2.Out[o]] != want2[o] {
				t.Fatalf("relocated copy output %d wrong at cycle %d", o, cyc)
			}
		}
	}
}

func TestTwoSequentialCircuitsShareClock(t *testing.T) {
	// Two independent counters loaded side by side advance together under
	// the global Step, without interfering.
	c := MustCompile(netlist.Counter(8), Options{Seed: 5})
	dev := fabric.NewDevice(fabric.DefaultGeometry())
	b1 := loadAt(t, dev, c, 0, 0, 0)
	b2 := loadAt(t, dev, c, c.BS.W+1, 0, 32)
	dev.SetPin(b1.In[0], true)  // en
	dev.SetPin(b2.In[0], false) // disabled
	for i := 0; i < 10; i++ {
		if _, err := dev.Step(); err != nil {
			t.Fatal(err)
		}
	}
	read := func(b *bitstream.PinBinding) uint64 {
		out, err := dev.Eval()
		if err != nil {
			t.Fatal(err)
		}
		bits := make([]bool, 8)
		for i := 0; i < 8; i++ {
			bits[i] = out[b.Out[i]]
		}
		return netlist.BoolsToUint(bits)
	}
	if got := read(b1); got != 10 {
		t.Fatalf("enabled counter = %d, want 10", got)
	}
	if got := read(b2); got != 0 {
		t.Fatalf("disabled counter = %d, want 0", got)
	}
}

func TestStateReadbackRestoreOnFabric(t *testing.T) {
	// Preemption round-trip on the device: run, read back FF state, trash
	// the region with another load, reload and restore, continue exactly.
	c := MustCompile(netlist.Counter(8), Options{Seed: 3})
	dev := fabric.NewDevice(fabric.DefaultGeometry())
	binding := loadAt(t, dev, c, 2, 2, 0)
	dev.SetPin(binding.In[0], true)
	for i := 0; i < 23; i++ {
		if _, err := dev.Step(); err != nil {
			t.Fatal(err)
		}
	}
	region := c.BS.Region(2, 2)
	saved := dev.ReadRegionState(region)
	if len(saved) != c.BS.FFCells {
		t.Fatalf("readback %d FFs, want %d", len(saved), c.BS.FFCells)
	}

	// Preempt: clear and reuse the region for something else.
	dev.ClearRegion(region)
	other := MustCompile(netlist.Parity(16), Options{Seed: 4})
	loadAt(t, dev, other, 2, 2, 100)

	// Resume: reload, restore, check the counter continues from 23.
	dev.ClearRegion(fabric.Region{X: 2, Y: 2, W: other.BS.W, H: other.BS.H})
	binding = loadAt(t, dev, c, 2, 2, 0)
	dev.WriteRegionState(region, saved)
	dev.SetPin(binding.In[0], true)
	out, err := dev.Eval()
	if err != nil {
		t.Fatal(err)
	}
	bits := make([]bool, 8)
	for i := range bits {
		bits[i] = out[binding.Out[i]]
	}
	if got := netlist.BoolsToUint(bits); got != 23 {
		t.Fatalf("restored counter = %d, want 23", got)
	}
}

func TestPagedLoadEndsFunctional(t *testing.T) {
	c := MustCompile(netlist.ALU(8), Options{Seed: 21})
	dev := fabric.NewDevice(fabric.DefaultGeometry())
	binding := &bitstream.PinBinding{}
	p := 0
	for i := 0; i < c.BS.NumIn; i++ {
		binding.In = append(binding.In, p)
		p++
	}
	for i := 0; i < c.BS.NumOut; i++ {
		binding.Out = append(binding.Out, p)
		p++
	}
	pages := c.BS.Pages(7)
	if len(pages) < 2 {
		t.Fatalf("alu8 split into %d pages, want several", len(pages))
	}
	total := 0
	for _, pg := range pages {
		n, _, err := c.BS.ApplyPage(dev, 0, 0, binding, pg)
		if err != nil {
			t.Fatal(err)
		}
		total += n
	}
	if total != c.BS.NumCells() {
		t.Fatalf("pages wrote %d cells, want %d", total, c.BS.NumCells())
	}
	// Pages do not configure pins; do a full Apply of the port map via the
	// zero-cost route: re-apply with no cells is not exposed, so apply the
	// last page again after configuring pins through Apply.
	if _, _, err := c.BS.Apply(dev, 0, 0, binding); err != nil {
		t.Fatal(err)
	}
	driveEqual(t, dev, c, binding, 32, 77)
}

func TestApplyOutOfBoundsRejected(t *testing.T) {
	c := MustCompile(netlist.Adder(8), Options{Seed: 1})
	dev := fabric.NewDevice(fabric.Geometry{Cols: 4, Rows: 4, TracksPerChannel: 8, PinsPerSide: 8})
	binding := &bitstream.PinBinding{In: make([]int, c.BS.NumIn), Out: make([]int, c.BS.NumOut)}
	if _, _, err := c.BS.Apply(dev, 0, 0, binding); err == nil {
		t.Fatal("oversized apply accepted")
	}
}

func TestApplyBindingMismatchRejected(t *testing.T) {
	c := MustCompile(netlist.Adder(8), Options{Seed: 1})
	dev := fabric.NewDevice(fabric.DefaultGeometry())
	binding := &bitstream.PinBinding{In: []int{0}, Out: []int{1}}
	if _, _, err := c.BS.Apply(dev, 0, 0, binding); err == nil {
		t.Fatal("mismatched binding accepted")
	}
}

func TestPinnedShapeNoGrowth(t *testing.T) {
	// Pinning an inadequate shape must fail rather than silently grow.
	nl := netlist.Multiplier(6)
	f := new(flow)
	m, err := f.frontEnd(nl, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.backEnd(nl, m, 3, 3, fabric.DefaultGeometry().TracksPerChannel, Options{Seed: 1}); err == nil {
		t.Fatal("pinned tiny shape accepted")
	}
}

// TestCompileStripRoutesAtItsTracks holds a strip compile, cached or not,
// to the channel capacity it is given.
func TestCompileStripRoutesAtItsTracks(t *testing.T) {
	nl := netlist.MustLookup("alu8")
	sc := NewStripCache(0)
	for _, tracks := range []int{8, 12} {
		direct, err := CompileStrip(nl, 16, tracks, Options{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		cached, err := sc.CompileStrip(nl, 16, tracks, Options{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range []*Circuit{direct, cached} {
			if c.Tracks != tracks || c.MaxUse > tracks {
				t.Fatalf("compiled at %d tracks: routed at %d, max channel use %d",
					tracks, c.Tracks, c.MaxUse)
			}
		}
	}
}

func TestConfigCostSane(t *testing.T) {
	c := MustCompile(netlist.Adder(16), Options{Seed: 1})
	tm := fabric.DefaultTiming()
	cost := c.BS.ConfigCost(tm)
	if cost <= 0 {
		t.Fatal("non-positive config cost")
	}
	if full := tm.FullConfigTime(fabric.DefaultGeometry()); cost >= full {
		t.Fatalf("partial cost %v >= full config %v", cost, full)
	}
}

func TestClockPeriodAtLeastFloor(t *testing.T) {
	c := MustCompile(netlist.Parity(16), Options{Seed: 1})
	if c.ClockPeriod < fabric.DefaultTiming().MinClock {
		t.Fatalf("clock period %v below floor", c.ClockPeriod)
	}
}

func TestCompileDeterministic(t *testing.T) {
	a := MustCompile(netlist.ALU(8), Options{Seed: 33})
	b := MustCompile(netlist.ALU(8), Options{Seed: 33})
	if a.Cells() != b.Cells() || a.ClockPeriod != b.ClockPeriod || a.BS.TotalHops != b.BS.TotalHops {
		t.Fatal("compile not deterministic")
	}
}

func TestBitstreamSummary(t *testing.T) {
	c := MustCompile(netlist.Adder(8), Options{Seed: 1})
	if c.BS.String() == "" || c.String() == "" {
		t.Fatal("empty summaries")
	}
}

func BenchmarkCompileAdder16(b *testing.B) {
	nl := netlist.Adder(16)
	for i := 0; i < b.N; i++ {
		if _, err := Compile(nl, Options{Seed: uint64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStripRegistry is a node's first touch of the whole library:
// every registry circuit through CompileStrip at the default board's 16
// rows. div16 runs apart: it is three quarters of the pass. The router's
// heap pops at the widths that routed print beside the time.
func BenchmarkStripRegistry(b *testing.B) {
	reg := netlist.Registry()
	var rest []string
	for name := range reg {
		if name != "div16" {
			rest = append(rest, name)
		}
	}
	sort.Strings(rest)
	tracks := fabric.DefaultGeometry().TracksPerChannel
	for _, set := range []struct {
		name     string
		circuits []string
	}{{"rest", rest}, {"div16", []string{"div16"}}} {
		b.Run(set.name, func(b *testing.B) {
			b.ReportAllocs()
			pops := 0
			for i := 0; i < b.N; i++ {
				for _, name := range set.circuits {
					c, err := CompileStrip(reg[name](), 16, tracks, Options{Seed: 1})
					if err != nil {
						b.Fatal(err)
					}
					pops += c.Pops
				}
			}
			b.ReportMetric(float64(pops)/float64(b.N), "pops/op")
		})
	}
}

// BenchmarkApplyStrip is one download: the compiled alu8 strip written
// into the configuration RAM of a default device, erased before the first
// write (later iterations overwrite the same cells, the same work per CLB).
func BenchmarkApplyStrip(b *testing.B) {
	g := fabric.DefaultGeometry()
	c, err := CompileStrip(netlist.MustLookup("alu8"), g.Rows, g.TracksPerChannel, Options{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	bind := &bitstream.PinBinding{In: make([]int, c.BS.NumIn), Out: make([]int, c.BS.NumOut)}
	for i := range bind.In {
		bind.In[i] = i
	}
	for o := range bind.Out {
		bind.Out[o] = c.BS.NumIn + o
	}
	dev := fabric.NewDevice(g)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := c.BS.Apply(dev, 0, 0, bind); err != nil {
			b.Fatal(err)
		}
	}
}

func TestOptimizerAblation(t *testing.T) {
	// The optimizer may only shrink (or keep) the CLB count, never grow
	// it, and must not change behaviour (behaviour is covered by the fuzz
	// tests; here we check the area ablation on real library circuits).
	for _, nl := range []*netlist.Netlist{
		netlist.PriorityEncoder(8), // constant-heavy mux ladder
		netlist.Comparator(16),     // constant-seeded scan chain
		netlist.ALU(8),
	} {
		raw := MustCompile(nl, Options{Seed: 2, DisableOpt: true})
		opt := MustCompile(nl, Options{Seed: 2})
		if opt.Cells() > raw.Cells() {
			t.Fatalf("%s: optimizer grew area %d -> %d", nl.Name, raw.Cells(), opt.Cells())
		}
		t.Logf("%s: %d cells raw, %d optimized", nl.Name, raw.Cells(), opt.Cells())
	}
}

func TestOptimizedCircuitStillEquivalentOnFabric(t *testing.T) {
	// End-to-end: optimization happens inside Compile, so the standard
	// equivalence drive covers it; exercise the const-heavy encoder.
	c, err := Compile(netlist.PriorityEncoder(8), Options{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	dev := fabric.NewDevice(fabric.DefaultGeometry())
	binding := loadAt(t, dev, c, 1, 1, 0)
	driveEqual(t, dev, c, binding, 64, 99)
}

// TestVerifyHookRejectsCorruptArtifacts runs the static verifier on a
// compiled circuit, then corrupts the bitstream and checks the verifier
// catches it — the compile-time gate that keeps broken configurations
// off the fabric.
func TestVerifyHookRejectsCorruptArtifacts(t *testing.T) {
	c := MustCompile(netlist.Counter(8), Options{Seed: 1})
	if errs := lint.Errors(Verify(c)); len(errs) > 0 {
		t.Fatalf("fresh artifact has lint errors: %v", errs)
	}
	// Push a cell write outside the claimed region: relocation would
	// scribble over a neighboring partition.
	c.BS.Cells[0].X = int16(c.BS.W + 3)
	if errs := lint.Errors(Verify(c)); len(errs) == 0 {
		t.Fatal("out-of-region cell write not detected")
	}
	// Lie about the state volume: readback/restore vectors would tear.
	c2 := MustCompile(netlist.Counter(8), Options{Seed: 1})
	c2.BS.FFCells++
	if errs := lint.Errors(Verify(c2)); len(errs) == 0 {
		t.Fatal("state-volume mismatch not detected")
	}
}

// TestLibraryCompilesVerified sweeps every registry circuit through the
// flow and Verify: the whole seed library must produce artifacts the
// static verifier accepts.
func TestLibraryCompilesVerified(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-library sweep")
	}
	for name, gen := range netlist.Registry() {
		c, err := Compile(gen(), Options{Seed: 1})
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if errs := lint.Errors(Verify(c)); len(errs) > 0 {
			t.Errorf("%s: verify: %v", name, errs)
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

// TestStripCompileByteBudget holds one uncached strip compile at the
// default board's 16 rows to its artifact plus scaffolding sized once, on
// a new flow (cold), and to its artifact alone on a flow an earlier
// compile of the same circuit has grown (warm): the Circuit, the
// Bitstream, its Cells and its OutDrivers, and nothing else — the stages'
// results stay in the flow. Budgets sit 10 % over today's readings. Warm,
// alu8 read 9 280 bytes in 17 objects and mul8 38 496 in 17 while a
// Circuit kept its Mapped, placement and routing; cold, alu8 read 96 746
// bytes in 141 objects and mul8 433 778 in 242 while the router kept a
// path per connection, the optimizer copied its result to sweep it and
// the mapper grew its cell table.
func TestStripCompileByteBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	for _, c := range []struct {
		name              string
		cold, coldObjects float64 // today's readings
		warm, warmObjects float64
	}{
		{"alu8", 54_650, 71, 1_568, 4},
		{"mul8", 285_258, 72, 5_728, 4},
	} {
		nl := netlist.MustLookup(c.name)
		compile := func(f *flow) {
			if _, err := f.compileStrip(nl, 16, 12, Options{Seed: 1}); err != nil {
				t.Fatal(err)
			}
		}
		bytes, objects := allocated(5, func() { compile(new(flow)) })
		if bytes > 1.1*c.cold || objects > 1.1*c.coldObjects {
			t.Errorf("CompileStrip(%s) on a new flow allocates %.0f bytes in %.0f objects, budget %.0f bytes, %.0f objects",
				c.name, bytes, objects, 1.1*c.cold, 1.1*c.coldObjects)
		}
		f := new(flow)
		bytes, objects = allocated(5, func() { compile(f) })
		if bytes > 1.1*c.warm || objects > 1.1*c.warmObjects {
			t.Errorf("CompileStrip(%s) on a warm flow allocates %.0f bytes in %.0f objects, budget %.0f bytes, %.0f objects",
				c.name, bytes, objects, 1.1*c.warm, 1.1*c.warmObjects)
		}
	}
}

// TestCompileStripMapsOnce holds a strip compile to one front end,
// however many widths its back end tries: cmp8 at six tracks does not
// route in its tightest strip, so a front end per width would run two.
func TestCompileStripMapsOnce(t *testing.T) {
	nl := netlist.MustLookup("cmp8")
	const rows, tracks = 16, 6
	f := new(flow)
	m, err := f.frontEnd(nl, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	cells := m.NumCells()
	minW := (cells + cells/8 + rows - 1) / rows
	f.frontEnds = 0
	c, err := f.compileStrip(nl, rows, tracks, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if c.BS.W == minW {
		t.Fatalf("cmp8 routed at its first width %d: pick another circuit", minW)
	}
	if f.frontEnds != 1 {
		t.Fatalf("a strip compile that tried widths %d to %d ran %d front ends, want 1", minW, c.BS.W, f.frontEnds)
	}
}

// TestCircuitOutlivesItsFlow holds a circuit to what it was when its
// compile returned after a larger circuit has gone through the same flow
// and overwritten every stage's result.
func TestCircuitOutlivesItsFlow(t *testing.T) {
	f := new(flow)
	compileOn := func(name string) *Circuit {
		c, err := f.compileStrip(netlist.MustLookup(name), 16, 12, Options{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	snapshot := func(c *Circuit) (string, sim.Time, [8]int) {
		var buf bytes.Buffer
		if err := c.BS.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String(), c.ClockPeriod, stageNumbers(c)
	}
	a := compileOn("alu8")
	bs, clock, numbers := snapshot(a)
	if b := compileOn("mul8"); b.Cells() <= a.Cells() {
		t.Fatalf("mul8 has %d cells, alu8 %d: not the larger circuit this test wants", b.Cells(), a.Cells())
	}
	if gotBS, gotClock, gotNumbers := snapshot(a); gotBS != bs || gotClock != clock || gotNumbers != numbers {
		t.Fatalf("alu8 changed when mul8 compiled on its flow: clock %v -> %v, stage numbers %v -> %v, bitstream equal %v",
			clock, gotClock, numbers, gotNumbers, gotBS == bs)
	}
}
