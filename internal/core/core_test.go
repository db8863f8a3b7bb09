package core

import (
	"fmt"
	"testing"

	"repro/internal/compile"
	"repro/internal/fabric"
	"repro/internal/hostos"
	"repro/internal/netlist"
	"repro/internal/rng"
	"repro/internal/sim"
)

// regionView is one span of a strip table's column map as the tests read
// it: a column range, the circuit it holds, the task that owns it (""
// for a cached, unowned resident), and whether it is free.
type regionView struct {
	X, W    int
	Circuit string
	Owner   string
	Free    bool
}

// Regions returns a view of each span of the column map, sorted by
// origin. Cached strips report their circuit with an empty owner.
func (st *stripTable) Regions() []regionView {
	var out []regionView
	for _, s := range st.rm.spans {
		v := regionView{X: s.X, W: s.W, Free: s.Free()}
		if !s.Free() {
			p := s.Owner.(*strip)
			v.Circuit = p.circuit
			if p.owner != nil {
				v.Owner = p.owner.Name
			}
		}
		out = append(out, v)
	}
	return out
}

// testGeometry is a small device so circuit compilation stays fast.
func testGeometry() fabric.Geometry {
	return fabric.Geometry{Cols: 24, Rows: 8, TracksPerChannel: 12, PinsPerSide: 24}
}

func testOptions() Options {
	o := DefaultOptions()
	o.Geometry = testGeometry()
	return o
}

// newEngine builds an engine preloaded with the small test circuits.
func newEngine(t testing.TB, opt Options) *Engine {
	t.Helper()
	e := NewEngine(opt, nil)
	for _, nl := range []*netlist.Netlist{
		netlist.Adder(8),      // comb, ~3 cols
		netlist.Parity(16),    // comb, tiny
		netlist.Counter(8),    // seq
		netlist.Multiplier(4), // comb, wider
		netlist.Accumulator(8),
	} {
		if err := e.AddCircuit(nl); err != nil {
			t.Fatalf("add %s: %v", nl.Name, err)
		}
	}
	return e
}

type harness struct {
	K  *sim.Kernel
	E  *Engine
	OS *hostos.OS
}

func newHarness(t testing.TB, opt Options, osCfg hostos.Config, mk func(*sim.Kernel, *Engine) hostos.FPGA) *harness {
	t.Helper()
	k := sim.New()
	e := newEngine(t, opt)
	mgr := mk(k, e)
	return &harness{K: k, E: e, OS: hostos.New(k, osCfg, mgr, nil)}
}

func dynHarness(t testing.TB, opt Options, osCfg hostos.Config) (*harness, *DynamicLoader) {
	var d *DynamicLoader
	h := newHarness(t, opt, osCfg, func(k *sim.Kernel, e *Engine) hostos.FPGA {
		d = NewDynamicLoader(k, e, nil)
		return d
	})
	return h, d
}

func fpgaOp(circuit string, evals int64) hostos.Op {
	return hostos.UseFPGA(&hostos.FPGARequest{Circuit: circuit, Evaluations: evals})
}

func seqOp(circuit string, cycles int64) hostos.Op {
	return hostos.UseFPGA(&hostos.FPGARequest{Circuit: circuit, Cycles: cycles})
}

// --- DynamicLoader ---

func TestDynamicLoadOnFirstUse(t *testing.T) {
	h, d := dynHarness(t, testOptions(), hostos.Config{Policy: hostos.FIFO})
	task, err := h.OS.Spawn("a", 0, []hostos.Op{fpgaOp("adder8", 100)})
	if err != nil {
		t.Fatal(err)
	}
	h.K.Run()
	if task.State() != hostos.TaskDone {
		t.Fatalf("state %v", task.State())
	}
	if h.E.M.Loads != 1 {
		t.Fatalf("loads = %d", h.E.M.Loads)
	}
	if r := d.E.Ledger().ResidentAt(0); r == nil || r.Circuit != "adder8" {
		t.Fatalf("resident %+v", r)
	}
	if task.Overhead < h.E.Lib["adder8"].BS.ConfigCost(h.E.Opt.Timing) {
		t.Fatal("config time not charged")
	}
}

func TestDynamicSharedCircuitNoReload(t *testing.T) {
	// Two tasks using the same combinational circuit: one download total
	// (the paper's shared device-driver algorithm).
	h, _ := dynHarness(t, testOptions(), hostos.Config{Policy: hostos.FIFO})
	h.OS.Spawn("a", 0, []hostos.Op{fpgaOp("adder8", 100)})
	h.OS.Spawn("b", 0, []hostos.Op{fpgaOp("adder8", 100)})
	h.K.Run()
	if h.E.M.Loads != 1 {
		t.Fatalf("loads = %d, want 1", h.E.M.Loads)
	}
}

func TestDynamicAlternationReloads(t *testing.T) {
	h, _ := dynHarness(t, testOptions(), hostos.Config{Policy: hostos.FIFO})
	h.OS.Spawn("a", 0, []hostos.Op{
		fpgaOp("adder8", 10), fpgaOp("mul4", 10), fpgaOp("adder8", 10), fpgaOp("mul4", 10),
	})
	h.K.Run()
	if got := h.E.M.Loads; got != 4 {
		t.Fatalf("loads = %d, want 4 (every switch reloads)", got)
	}
	if h.E.M.Evictions != 3 {
		t.Fatalf("evictions = %d, want 3", h.E.M.Evictions)
	}
}

func TestDynamicFullVsPartialReconfig(t *testing.T) {
	run := func(partial bool) sim.Time {
		opt := testOptions()
		opt.Timing.PartialReconfig = partial
		h, _ := dynHarness(t, opt, hostos.Config{Policy: hostos.FIFO})
		var prog []hostos.Op
		for i := 0; i < 4; i++ {
			prog = append(prog, fpgaOp("adder8", 10), fpgaOp("parity16", 10))
		}
		task, _ := h.OS.Spawn("a", 0, prog)
		h.K.Run()
		return task.Turnaround()
	}
	withPartial := run(true)
	fullOnly := run(false)
	// The paper's point: full serial reconfiguration makes frequent
	// switching an order of magnitude worse than partial reconfiguration.
	if fullOnly < 3*withPartial {
		t.Fatalf("full-only %v should dominate partial %v", fullOnly, withPartial)
	}
	full := fabric.DefaultTiming().FullConfigTime(testGeometry())
	if fullOnly < 8*full {
		t.Fatalf("8 full reconfigs (%v each) should bound %v", full, fullOnly)
	}
}

func TestDynamicSequentialSaveRestore(t *testing.T) {
	// A sequential task preempted by a CPU hog must save and restore FF
	// state and lose no completed cycles.
	opt := testOptions()
	opt.State = SaveRestore
	h, _ := dynHarness(t, opt, hostos.Config{Policy: hostos.RR, TimeSlice: 2 * sim.Millisecond})
	hw, _ := h.OS.Spawn("hw", 0, []hostos.Op{seqOp("counter8", 400_000)}) // 8ms at 20ns
	h.OS.Spawn("cpu", 0, []hostos.Op{hostos.Compute(6 * sim.Millisecond)})
	h.K.Run()
	if hw.Preemptions == 0 {
		t.Fatal("expected preemptions")
	}
	if h.E.M.Readbacks == 0 || h.E.M.Restores == 0 {
		t.Fatalf("readbacks %d restores %d", h.E.M.Readbacks, h.E.M.Restores)
	}
	want := sim.Time(400_000) * h.E.Lib["counter8"].ClockPeriod
	if hw.HWTime != want {
		t.Fatalf("HW time %v, want %v (no lost work)", hw.HWTime, want)
	}
}

func TestDynamicSequentialRollbackRedoes(t *testing.T) {
	opt := testOptions()
	opt.State = Rollback
	h, _ := dynHarness(t, opt, hostos.Config{Policy: hostos.RR, TimeSlice: 2 * sim.Millisecond})
	hw, _ := h.OS.Spawn("hw", 0, []hostos.Op{seqOp("counter8", 400_000)})
	h.OS.Spawn("cpu", 0, []hostos.Op{hostos.Compute(6 * sim.Millisecond)})
	h.K.Run()
	want := sim.Time(400_000) * h.E.Lib["counter8"].ClockPeriod
	if hw.HWTime <= want {
		t.Fatalf("rollback should redo work: %v <= %v", hw.HWTime, want)
	}
	if h.E.M.Rollbacks == 0 {
		t.Fatal("no rollbacks counted")
	}
}

func TestDynamicNonPreemptableRunsThrough(t *testing.T) {
	opt := testOptions()
	opt.State = NonPreemptable
	h, _ := dynHarness(t, opt, hostos.Config{Policy: hostos.RR, TimeSlice: sim.Millisecond})
	hw, _ := h.OS.Spawn("hw", 0, []hostos.Op{seqOp("counter8", 400_000)})
	h.OS.Spawn("cpu", 0, []hostos.Op{hostos.Compute(2 * sim.Millisecond)})
	h.K.Run()
	if hw.Preemptions != 0 {
		t.Fatalf("non-preemptable op preempted %d times", hw.Preemptions)
	}
}

func TestDynamicCombPreemptionLosesNothing(t *testing.T) {
	h, _ := dynHarness(t, testOptions(), hostos.Config{Policy: hostos.RR, TimeSlice: sim.Millisecond})
	hw, _ := h.OS.Spawn("hw", 0, []hostos.Op{fpgaOp("adder8", 400_000)})
	h.OS.Spawn("cpu", 0, []hostos.Op{hostos.Compute(3 * sim.Millisecond)})
	h.K.Run()
	want := sim.Time(400_000) * h.E.Lib["adder8"].ClockPeriod
	// Stream position is task state: at most one vector redone per preempt.
	slack := sim.Time(hw.Preemptions+1) * h.E.Lib["adder8"].ClockPeriod
	if hw.HWTime < want || hw.HWTime > want+slack {
		t.Fatalf("HW time %v, want %v (+<=%v)", hw.HWTime, want, slack)
	}
	if h.E.M.Readbacks != 0 {
		t.Fatal("combinational preemption should not read back state")
	}
}

func TestDynamicStateIsolationBetweenTasks(t *testing.T) {
	// Two tasks sharing a sequential circuit must not see each other's
	// state: readbacks/restores swap it.
	h, _ := dynHarness(t, testOptions(), hostos.Config{Policy: hostos.RR, TimeSlice: sim.Millisecond})
	a, _ := h.OS.Spawn("a", 0, []hostos.Op{seqOp("counter8", 100_000), seqOp("counter8", 100_000)})
	b, _ := h.OS.Spawn("b", 0, []hostos.Op{seqOp("counter8", 100_000)})
	h.K.Run()
	if a.State() != hostos.TaskDone || b.State() != hostos.TaskDone {
		t.Fatal("tasks not done")
	}
	if h.E.M.Readbacks == 0 {
		t.Fatal("state swapping requires readbacks")
	}
}

func TestDoneSignalSlowerThanApriori(t *testing.T) {
	run := func(mode CompletionMode) sim.Time {
		opt := testOptions()
		opt.Completion = mode
		h, _ := dynHarness(t, opt, hostos.Config{Policy: hostos.FIFO})
		task, _ := h.OS.Spawn("a", 0, []hostos.Op{fpgaOp("adder8", 1000)})
		h.K.Run()
		return task.HWTime
	}
	apriori := run(Apriori)
	polled := run(DoneSignal)
	if polled <= apriori {
		t.Fatalf("done-signal %v should cost more than a-priori %v", polled, apriori)
	}
}

// --- pin multiplexing ---

func TestPinMultiplexing(t *testing.T) {
	// A device with very few pins forces time multiplexing: exec time
	// scales by the mux factor.
	optLow := testOptions()
	optLow.Geometry.PinsPerSide = 2 // 8 pins for adder8's 17 in + 9 out
	h, _ := dynHarness(t, optLow, hostos.Config{Policy: hostos.FIFO})
	muxed, _ := h.OS.Spawn("a", 0, []hostos.Op{fpgaOp("adder8", 1000)})
	h.K.Run()

	h2, _ := dynHarness(t, testOptions(), hostos.Config{Policy: hostos.FIFO})
	direct, _ := h2.OS.Spawn("a", 0, []hostos.Op{fpgaOp("adder8", 1000)})
	h2.K.Run()

	if muxed.HWTime < 2*direct.HWTime {
		t.Fatalf("muxed HW time %v not scaled vs direct %v", muxed.HWTime, direct.HWTime)
	}
	if h.E.M.MuxedOps == 0 {
		t.Fatal("muxed ops not counted")
	}
}

func TestAllocPins(t *testing.T) {
	e := NewEngine(testOptions(), nil)
	total := e.FreePinCount()
	pins, mux, err := e.AllocPins(10)
	if err != nil || mux != 1 || len(pins) != 10 {
		t.Fatalf("alloc: %v %d %d", err, mux, len(pins))
	}
	if e.FreePinCount() != total-10 {
		t.Fatal("pool not decremented")
	}
	e.FreePins(pins)
	if e.FreePinCount() != total {
		t.Fatal("pool not restored")
	}
	// Over-allocation multiplexes.
	pins2, mux2, err := e.AllocPins(total + 50)
	if err != nil || mux2 < 2 {
		t.Fatalf("want mux >= 2, got %d (%v)", mux2, err)
	}
	e.FreePins(pins2)
	// Zero-pin request is free.
	if _, mux3, _ := e.AllocPins(0); mux3 != 1 {
		t.Fatal("zero-pin alloc should be mux 1")
	}
}

// --- PartitionManager ---

func partHarness(t testing.TB, opt Options, osCfg hostos.Config, cfg PartitionConfig) (*harness, *PartitionManager) {
	var pm *PartitionManager
	h := newHarness(t, opt, osCfg, func(k *sim.Kernel, e *Engine) hostos.FPGA {
		var err error
		pm, err = NewPartitionManager(k, e, cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		return pm
	})
	return h, pm
}

func TestPartitionTwoTasksCoexist(t *testing.T) {
	h, pm := partHarness(t, testOptions(), hostos.Config{Policy: hostos.RR, TimeSlice: sim.Millisecond},
		PartitionConfig{Mode: VariablePartitions})
	a, _ := h.OS.Spawn("a", 0, []hostos.Op{fpgaOp("adder8", 1000), fpgaOp("adder8", 1000)})
	b, _ := h.OS.Spawn("b", 0, []hostos.Op{fpgaOp("parity16", 1000), fpgaOp("parity16", 1000)})
	h.K.Run()
	if a.State() != hostos.TaskDone || b.State() != hostos.TaskDone {
		t.Fatal("not done")
	}
	// Each task loads once into its own partition; the second op is free.
	if h.E.M.Loads != 2 {
		t.Fatalf("loads = %d, want 2", h.E.M.Loads)
	}
	if h.E.M.Blocks != 0 {
		t.Fatal("nothing should block")
	}
	// After both tasks exit, all partitions merge back into one free strip.
	parts := pm.Regions()
	if len(parts) != 1 || !parts[0].Free {
		t.Fatalf("partitions after exit: %+v", parts)
	}
}

func TestPartitionBlocksWhenFull(t *testing.T) {
	// Fixed single partition: the second task suspends until the first
	// exits (the paper's waiting-state discussion).
	h, _ := partHarness(t, testOptions(), hostos.Config{Policy: hostos.RR, TimeSlice: sim.Millisecond},
		PartitionConfig{Mode: FixedPartitions, FixedWidths: []int{12}})
	a, _ := h.OS.Spawn("a", 0, []hostos.Op{fpgaOp("adder8", 100_000), hostos.Compute(sim.Millisecond)})
	b, _ := h.OS.Spawn("b", 0, []hostos.Op{hostos.Compute(100 * sim.Microsecond), fpgaOp("mul4", 100)})
	h.K.Run()
	if b.BlockWait == 0 {
		t.Fatal("b never blocked")
	}
	if h.E.M.Blocks == 0 {
		t.Fatal("blocks not counted")
	}
	if b.Finished <= a.Finished {
		t.Fatal("b should finish after a releases the partition")
	}
}

func TestPartitionRotationAvoidsBlocking(t *testing.T) {
	h, _ := partHarness(t, testOptions(), hostos.Config{Policy: hostos.RR, TimeSlice: sim.Millisecond},
		PartitionConfig{Mode: FixedPartitions, FixedWidths: []int{12}, Rotate: true})
	a, _ := h.OS.Spawn("a", 0, []hostos.Op{fpgaOp("adder8", 1000), hostos.Compute(5 * sim.Millisecond), fpgaOp("adder8", 1000)})
	b, _ := h.OS.Spawn("b", 0, []hostos.Op{hostos.Compute(100 * sim.Microsecond), fpgaOp("mul4", 1000)})
	h.K.Run()
	if a.State() != hostos.TaskDone || b.State() != hostos.TaskDone {
		t.Fatal("not done")
	}
	if h.E.M.Blocks != 0 {
		t.Fatal("rotation should avoid blocking")
	}
	if h.E.M.Evictions == 0 {
		t.Fatal("rotation must evict")
	}
	// a's third op reloads after eviction.
	if h.E.M.Loads < 3 {
		t.Fatalf("loads = %d, want >= 3", h.E.M.Loads)
	}
}

func TestPartitionVariableSplitsAndMerges(t *testing.T) {
	h, pm := partHarness(t, testOptions(), hostos.Config{Policy: hostos.RR, TimeSlice: sim.Millisecond},
		PartitionConfig{Mode: VariablePartitions})
	a, _ := h.OS.Spawn("a", 0, []hostos.Op{fpgaOp("adder8", 100)})
	h.K.Run()
	if a.State() != hostos.TaskDone {
		t.Fatal("not done")
	}
	// After the only task exits, everything merges back to one free strip.
	parts := pm.Regions()
	if len(parts) != 1 || !parts[0].Free || parts[0].W != testGeometry().Cols {
		t.Fatalf("partitions after release: %+v", parts)
	}
}

func TestPartitionGCCompacts(t *testing.T) {
	// Create fragmentation: a, b, c allocate; b exits leaving a hole; d
	// needs more than the largest free strip but less than total free.
	geom := testGeometry()
	opt := testOptions()
	opt.Geometry = geom
	h, pm := partHarness(t, opt, hostos.Config{Policy: hostos.Priority, TimeSlice: 10 * sim.Millisecond},
		PartitionConfig{Mode: VariablePartitions, GC: true})

	// Long-running a and c sandwich a short-lived b.
	a, _ := h.OS.Spawn("a", 1, []hostos.Op{fpgaOp("adder8", 10), hostos.Compute(20 * sim.Millisecond), fpgaOp("adder8", 10)})
	b, _ := h.OS.Spawn("b", 2, []hostos.Op{fpgaOp("parity16", 10)})
	c, _ := h.OS.Spawn("c", 3, []hostos.Op{fpgaOp("counter8", 10), hostos.Compute(20 * sim.Millisecond), seqOp("counter8", 10)})
	// d arrives later needing a wide strip.
	h.OS.SpawnAt(5*sim.Millisecond, "d", 4, []hostos.Op{fpgaOp("mul4", 10)})
	h.K.Run()
	for _, task := range []*hostos.Task{a, b, c} {
		if task.State() != hostos.TaskDone {
			t.Fatalf("%s not done", task.Name)
		}
	}
	if !h.OS.AllDone() {
		t.Fatal("d did not finish")
	}
	_ = pm
	if h.E.M.GCRuns == 0 {
		t.Skip("workload did not fragment enough to trigger GC on this geometry")
	}
	if h.E.M.Relocations == 0 {
		t.Fatal("GC ran without relocating")
	}
}

// TestPartitionCompactStopsEarly is the regression test for the §4 GC
// fix: compaction now stops as soon as a hole of the requested width
// exists, charging only the relocations actually performed, instead of
// sliding every resident strip.
func TestPartitionCompactStopsEarly(t *testing.T) {
	// Size the device so n strips tile it exactly (no free tail): every
	// hole in the test comes from a release, never from slack.
	probe := newEngine(t, testOptions())
	pc := probe.Lib["parity16"]
	n := probe.Opt.Geometry.Cols / pc.BS.W
	if byPins := probe.FreePinCount() / (pc.BS.NumIn + pc.BS.NumOut); byPins < n {
		n = byPins
	}
	if n < 5 {
		t.Fatalf("only %d parity16 strips fit, need >= 5", n)
	}
	opt := testOptions()
	opt.Geometry.Cols = n * pc.BS.W

	build := func(t *testing.T) (*Engine, *PartitionManager, []*strip) {
		e := newEngine(t, opt)
		pm, err := NewPartitionManager(sim.New(), e, PartitionConfig{
			Mode: VariablePartitions, Fit: FirstFit, GC: true,
		}, nil)
		if err != nil {
			t.Fatal(err)
		}
		c := e.Lib["parity16"]
		w := c.BS.W
		var parts []*strip
		for i := 0; i < n; i++ {
			p := &strip{}
			p.span = pm.rm.Alloc(pm.rm.FindFree(w, FirstFit), w, p)
			e.Ledger().Load(fmt.Sprintf("t%d", i), c, p.span.X, false)
			p.circuit = c.Name
			parts = append(parts, p)
		}
		return e, pm, parts
	}

	// Two single-strip holes; a request for a double-width strip needs
	// exactly one slide to merge them.
	e, pm, parts := build(t)
	need := 2 * parts[0].span.W
	pm.drop(parts[1].span, false)
	pm.drop(parts[3].span, false)
	pm.compact(need)
	if got := e.M.Relocations; got != 1 {
		t.Fatalf("early-stop compact relocated %d strips, want 1", got)
	}
	if e.M.GCRuns != 1 {
		t.Fatalf("gc runs = %d", e.M.GCRuns)
	}
	if _, largest := pm.FreeCols(); largest < need {
		t.Fatalf("largest hole = %d after compact, need %d", largest, need)
	}

	// The old full pack slides every out-of-place strip.
	e2, pm2, parts2 := build(t)
	pm2.drop(parts2[1].span, false)
	pm2.drop(parts2[3].span, false)
	pm2.compact(0)
	if full := e2.M.Relocations; full <= 1 {
		t.Fatalf("full pack relocated %d strips, expected more than the early stop's 1", full)
	}
}

func TestPartitionPreemptionKeepsState(t *testing.T) {
	// Partitioned sequential circuits keep state in place: preemption has
	// no readback cost (the partition is not reassigned).
	h, _ := partHarness(t, testOptions(), hostos.Config{Policy: hostos.RR, TimeSlice: sim.Millisecond},
		PartitionConfig{Mode: VariablePartitions})
	hw, _ := h.OS.Spawn("hw", 0, []hostos.Op{seqOp("counter8", 400_000)})
	h.OS.Spawn("cpu", 0, []hostos.Op{hostos.Compute(4 * sim.Millisecond)})
	h.K.Run()
	if hw.Preemptions == 0 {
		t.Fatal("expected preemptions")
	}
	if h.E.M.Readbacks != 0 {
		t.Fatalf("partitioned preemption should not read back (got %d)", h.E.M.Readbacks)
	}
	want := sim.Time(400_000) * h.E.Lib["counter8"].ClockPeriod
	if hw.HWTime != want {
		t.Fatalf("HW time %v, want %v", hw.HWTime, want)
	}
}

func TestPartitionRegisterRejectsOversized(t *testing.T) {
	h, _ := partHarness(t, testOptions(), hostos.Config{Policy: hostos.FIFO},
		PartitionConfig{Mode: FixedPartitions, FixedWidths: []int{2}})
	if _, err := h.OS.Spawn("big", 0, []hostos.Op{fpgaOp("mul4", 10)}); err == nil {
		t.Fatal("oversized circuit accepted into 2-column partition")
	}
}

func TestPartitionFixedInvalidWidths(t *testing.T) {
	e := newEngine(t, testOptions())
	if _, err := NewPartitionManager(sim.New(), e, PartitionConfig{Mode: FixedPartitions, FixedWidths: []int{1000}}, nil); err == nil {
		t.Fatal("oversized fixed widths accepted")
	}
	if _, err := NewPartitionManager(sim.New(), e, PartitionConfig{Mode: FixedPartitions}, nil); err == nil {
		t.Fatal("empty fixed widths accepted")
	}
}

// A fixed table's free slots sit side by side and never merge: the map's
// Check takes the coalescing and tiling rules from its kind, so a fresh
// table is clean.
func TestPartitionFixedTableLintClean(t *testing.T) {
	e := newEngine(t, testOptions())
	pm, err := NewPartitionManager(sim.New(), e, PartitionConfig{Mode: FixedPartitions, FixedWidths: []int{8, 8, 8}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if parts := pm.Regions(); pm.rm.Movable() || len(parts) != 3 || pm.name != "partitions(fixed)" {
		t.Fatalf("fixed table = %+v, movable %v, named %q", parts, pm.rm.Movable(), pm.name)
	}
	if err := pm.Check(); err != nil {
		t.Fatalf("fresh fixed table fails its check: %v", err)
	}
}

func TestPartitionBestFitPicksTightest(t *testing.T) {
	h, pm := partHarness(t, testOptions(), hostos.Config{Policy: hostos.FIFO},
		PartitionConfig{Mode: FixedPartitions, FixedWidths: []int{12, 3}, Fit: BestFit})
	// parity16 is 1 column; best fit puts it in the 3-wide partition.
	a, _ := h.OS.Spawn("a", 0, []hostos.Op{fpgaOp("parity16", 10), hostos.Compute(sim.Millisecond)})
	h.K.RunUntil(500 * sim.Microsecond)
	_ = a
	parts := pm.Regions()
	if parts[1].Circuit != "parity16" {
		t.Fatalf("best fit chose wrong partition: %+v", parts)
	}
	h.K.Run()
}

// --- OverlayManager ---

// circuitsOf returns e's compiled circuits of the given names, in order.
func circuitsOf(e *Engine, names []string) []*compile.Circuit {
	out := make([]*compile.Circuit, len(names))
	for i, name := range names {
		out[i] = e.Lib[name]
	}
	return out
}

func overlayHarness(t testing.TB, opt Options, osCfg hostos.Config, resident []string) (*harness, *OverlayManager) {
	var om *OverlayManager
	h := newHarness(t, opt, osCfg, func(k *sim.Kernel, e *Engine) hostos.FPGA {
		var err error
		om, _, err = NewOverlayManager(k, e, circuitsOf(e, resident), nil)
		if err != nil {
			t.Fatal(err)
		}
		return om
	})
	return h, om
}

func TestOverlayResidentHitFree(t *testing.T) {
	h, _ := overlayHarness(t, testOptions(), hostos.Config{Policy: hostos.FIFO}, []string{"adder8"})
	loadsAfterInit := h.E.M.Loads
	a, _ := h.OS.Spawn("a", 0, []hostos.Op{fpgaOp("adder8", 100), fpgaOp("adder8", 100)})
	h.K.Run()
	if a.State() != hostos.TaskDone {
		t.Fatal("not done")
	}
	if h.E.M.Loads != loadsAfterInit {
		t.Fatal("resident circuit reloaded")
	}
}

func TestOverlayMissesSwap(t *testing.T) {
	h, om := overlayHarness(t, testOptions(), hostos.Config{Policy: hostos.FIFO}, []string{"adder8"})
	base := h.E.M.Loads
	a, _ := h.OS.Spawn("a", 0, []hostos.Op{
		fpgaOp("parity16", 10), fpgaOp("mul4", 10), fpgaOp("parity16", 10),
	})
	h.K.Run()
	if a.State() != hostos.TaskDone {
		t.Fatal("not done")
	}
	if got := h.E.M.Loads - base; got != 3 {
		t.Fatalf("overlay loads = %d, want 3 (every miss swaps)", got)
	}
	if om.OverlayCircuit() != "parity16" {
		t.Fatalf("overlay holds %q", om.OverlayCircuit())
	}
}

func TestOverlayRejectsOversizedNonResident(t *testing.T) {
	// Residents fill most of the device; a wide circuit cannot overlay.
	opt := testOptions()
	opt.Geometry.Cols = 8
	h, _ := overlayHarness(t, opt, hostos.Config{Policy: hostos.FIFO}, []string{"adder8", "counter8"})
	if _, err := h.OS.Spawn("big", 0, []hostos.Op{fpgaOp("mul4", 10)}); err == nil {
		t.Fatal("oversized overlay circuit accepted")
	}
}

func TestOverlaySequentialStatePerTask(t *testing.T) {
	h, _ := overlayHarness(t, testOptions(), hostos.Config{Policy: hostos.RR, TimeSlice: sim.Millisecond}, []string{"counter8"})
	a, _ := h.OS.Spawn("a", 0, []hostos.Op{seqOp("counter8", 200_000)})
	b, _ := h.OS.Spawn("b", 0, []hostos.Op{seqOp("counter8", 200_000)})
	h.K.Run()
	if a.State() != hostos.TaskDone || b.State() != hostos.TaskDone {
		t.Fatal("not done")
	}
	want := sim.Time(200_000) * h.E.Lib["counter8"].ClockPeriod
	if a.HWTime != want || b.HWTime != want {
		t.Fatalf("HW times %v %v, want %v", a.HWTime, b.HWTime, want)
	}
	if h.E.M.Readbacks == 0 {
		t.Fatal("per-task state on a shared resident requires readbacks")
	}
}

// --- PagedLoader ---

func pagedHarness(t testing.TB, opt Options, osCfg hostos.Config, cfg PagedConfig) (*harness, *PagedLoader) {
	var pl *PagedLoader
	h := newHarness(t, opt, osCfg, func(k *sim.Kernel, e *Engine) hostos.FPGA {
		var err error
		pl, err = NewPagedLoader(k, e, cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		return pl
	})
	return h, pl
}

func pagedOp(circuit string, evals int64, pages ...int) hostos.Op {
	return hostos.UseFPGA(&hostos.FPGARequest{Circuit: circuit, Evaluations: evals, Pages: pages})
}

func TestPagedFirstTouchFaultsAll(t *testing.T) {
	h, pl := pagedHarness(t, testOptions(), hostos.Config{Policy: hostos.FIFO},
		PagedConfig{PageCells: 8, Frames: 16, Policy: LRU})
	a, _ := h.OS.Spawn("a", 0, []hostos.Op{fpgaOp("adder8", 100)})
	h.K.Run()
	if a.State() != hostos.TaskDone {
		t.Fatal("not done")
	}
	pages := (h.E.Lib["adder8"].Cells() + 7) / 8
	if got := h.E.M.PageFaults; got != int64(pages) {
		t.Fatalf("faults = %d, want %d", got, pages)
	}
	// The exiting task was the circuit's last user, so its frames are
	// released rather than stranded (Remove's reclamation).
	if len(pl.where) != 0 {
		t.Fatalf("resident = %d, want 0 after last user exited", len(pl.where))
	}
	if h.E.M.Evictions != 0 {
		t.Fatalf("evictions = %d, want 0 (release at exit is voluntary)", h.E.M.Evictions)
	}
}

func TestPagedHitIsFree(t *testing.T) {
	h, _ := pagedHarness(t, testOptions(), hostos.Config{Policy: hostos.FIFO},
		PagedConfig{PageCells: 8, Frames: 16, Policy: LRU})
	h.OS.Spawn("a", 0, []hostos.Op{pagedOp("adder8", 10, 0), pagedOp("adder8", 10, 0)})
	h.K.Run()
	if h.E.M.PageFaults != 1 {
		t.Fatalf("faults = %d, want 1 (second touch hits)", h.E.M.PageFaults)
	}
}

// TestPagedFaultInAllocatesNothing: an operation whose working set is
// resident resolves its pages into the loader's scratch slice and pins
// frames by stamp, so Acquire allocates nothing — both for an explicit
// page list and for the whole-circuit default.
func TestPagedFaultInAllocatesNothing(t *testing.T) {
	for name, op := range map[string]hostos.Op{
		"page list":     pagedOp("adder8", 10, 0, 1),
		"whole circuit": fpgaOp("adder8", 10),
	} {
		h, pl := pagedHarness(t, testOptions(), hostos.Config{Policy: hostos.FIFO},
			PagedConfig{PageCells: 8, Frames: 16, Policy: LRU})
		task, err := h.OS.Spawn("a", 0, []hostos.Op{op})
		if err != nil {
			t.Fatal(err)
		}
		if cost, ok := pl.Acquire(task); !ok || cost == 0 {
			t.Fatalf("%s: first Acquire = (%v, %v), want faults", name, cost, ok)
		}
		allocs := testing.AllocsPerRun(100, func() {
			if cost, _ := pl.Acquire(task); cost != 0 {
				t.Fatalf("%s: resident working set faulted (%v)", name, cost)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: Acquire on a resident working set allocates %.0f objects, want 0", name, allocs)
		}
	}
}

func BenchmarkPagedAcquire(b *testing.B) {
	h, pl := pagedHarness(b, testOptions(), hostos.Config{Policy: hostos.FIFO},
		PagedConfig{PageCells: 8, Frames: 16, Policy: LRU})
	task, err := h.OS.Spawn("a", 0, []hostos.Op{pagedOp("adder8", 10, 0, 1)})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		pl.Acquire(task)
	}
}

func TestPagedEvictionUnderPressure(t *testing.T) {
	h, _ := pagedHarness(t, testOptions(), hostos.Config{Policy: hostos.FIFO},
		PagedConfig{PageCells: 4, Frames: 2, Policy: LRU})
	h.OS.Spawn("a", 0, []hostos.Op{
		pagedOp("adder8", 10, 0), pagedOp("adder8", 10, 1), pagedOp("adder8", 10, 2),
		pagedOp("adder8", 10, 0), // evicted by now under LRU with 2 frames
	})
	h.K.Run()
	if h.E.M.PageFaults != 4 {
		t.Fatalf("faults = %d, want 4", h.E.M.PageFaults)
	}
	if h.E.M.Evictions == 0 {
		t.Fatal("no evictions under frame pressure")
	}
}

func TestPagedLRUBeatsRandomOnReuse(t *testing.T) {
	run := func(policy ReplacePolicy) int64 {
		h, _ := pagedHarness(t, testOptions(), hostos.Config{Policy: hostos.FIFO},
			PagedConfig{PageCells: 4, Frames: 3, Policy: policy, Seed: 7})
		var prog []hostos.Op
		// Hot pages 0,1 with an occasional cold page (2 or 3 alternating):
		// the hot set fits in the 3 frames, so LRU always sacrifices the
		// stale cold page, while Random sometimes evicts a hot one.
		for i := 0; i < 30; i++ {
			prog = append(prog, pagedOp("adder8", 1, 0), pagedOp("adder8", 1, 1))
			if i%5 == 0 {
				prog = append(prog, pagedOp("adder8", 1, 2+(i/5)%2))
			}
		}
		h.OS.Spawn("a", 0, prog)
		h.K.Run()
		return h.E.M.PageFaults
	}
	lru := run(LRU)
	random := run(Random)
	if lru > random {
		t.Fatalf("LRU faults %d > Random faults %d on a reuse-heavy string", lru, random)
	}
}

// TestRandomVictimWhenSamplingMisses drives the random policy with a
// stream whose first 30 draws over three frames all land on the two
// pinned ones: the bounded rejection sampling gives up, and the victim
// must then be the one unpinned frame, not a panic.
func TestRandomVictimWhenSamplingMisses(t *testing.T) {
	const seed = 127898
	pinned := map[int]bool{0: true, 1: true}
	probe := rng.New(seed)
	for i := 0; i < 30; i++ {
		if !pinned[probe.Intn(3)] {
			t.Fatalf("draw %d of seed %d hits the free frame: pick a seed that exhausts the tries", i, seed)
		}
	}
	pl := &PagedLoader{Cfg: PagedConfig{Policy: Random}, frames: make([]frame, 3), src: *rng.New(seed), pinGen: 1}
	pl.frames[0].pin, pl.frames[1].pin = 1, 1
	if got := pl.victim(); got != 2 {
		t.Fatalf("victim = %d, want the only unpinned frame 2", got)
	}

	defer func() {
		if recover() == nil {
			t.Fatal("no panic with every frame pinned")
		}
	}()
	pl.frames[2].pin = 1
	pl.victim()
}

func TestPagedPoliciesAllTerminate(t *testing.T) {
	for _, policy := range []ReplacePolicy{LRU, PageFIFO, Clock, Random} {
		h, _ := pagedHarness(t, testOptions(), hostos.Config{Policy: hostos.FIFO},
			PagedConfig{PageCells: 4, Frames: 2, Policy: policy, Seed: 3})
		var prog []hostos.Op
		for i := 0; i < 10; i++ {
			prog = append(prog, pagedOp("adder8", 1, i%4))
		}
		a, _ := h.OS.Spawn("a", 0, prog)
		h.K.Run()
		if a.State() != hostos.TaskDone {
			t.Fatalf("%v: not done", policy)
		}
	}
}

func TestPagedInvalidConfigs(t *testing.T) {
	e := newEngine(t, testOptions())
	if _, err := NewPagedLoader(sim.New(), e, PagedConfig{PageCells: 0}, nil); err == nil {
		t.Fatal("zero page size accepted")
	}
}

func TestPagedMoreFramesFewerFaults(t *testing.T) {
	run := func(frames int) int64 {
		h, _ := pagedHarness(t, testOptions(), hostos.Config{Policy: hostos.FIFO},
			PagedConfig{PageCells: 4, Frames: frames, Policy: LRU})
		var prog []hostos.Op
		for i := 0; i < 20; i++ {
			prog = append(prog, pagedOp("adder8", 1, i%4))
		}
		h.OS.Spawn("a", 0, prog)
		h.K.Run()
		return h.E.M.PageFaults
	}
	few := run(2)
	many := run(8)
	if many >= few {
		t.Fatalf("more frames should fault less: %d vs %d", many, few)
	}
}

func TestStatePolicyStrings(t *testing.T) {
	if SaveRestore.String() != "save-restore" || Rollback.String() != "rollback" ||
		NonPreemptable.String() != "non-preemptable" {
		t.Fatal("state policy names")
	}
	if Apriori.String() != "a-priori" || DoneSignal.String() != "done-signal" {
		t.Fatal("completion names")
	}
	if LRU.String() != "lru" || Clock.String() != "clock" {
		t.Fatal("replace names")
	}
	if FixedPartitions.String() != "fixed" || VariablePartitions.String() != "variable" {
		t.Fatal("mode names")
	}
	if FirstFit.String() != "first-fit" || BestFit.String() != "best-fit" {
		t.Fatal("fit names")
	}
}
