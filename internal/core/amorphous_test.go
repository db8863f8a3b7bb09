package core

// Directed tests for the AmorphousManager's policy paths: adoption
// caching, cache reclaim under space pressure, boundary sliding, LRU
// rotation with state save/restore, and block/wake. The conformance and
// property suites cover the contract; these pin the mechanisms.

import (
	"testing"

	"repro/internal/hostos"
	"repro/internal/netlist"
	"repro/internal/sim"
)

// amorphousEngine builds an engine with exactly the given circuits on a
// cols-wide test device.
func amorphousEngine(t *testing.T, cols int, nls ...*netlist.Netlist) *Engine {
	t.Helper()
	opt := testOptions()
	opt.Geometry.Cols = cols
	e := NewEngine(opt, nil)
	for _, nl := range nls {
		if err := e.AddCircuit(nl); err != nil {
			t.Fatalf("add %s: %v", nl.Name, err)
		}
	}
	return e
}

// stripWidths compiles the test circuits once on a wide device and
// returns their column widths (a pure function of the circuit and row
// count, not of device width).
func stripWidths(t *testing.T) map[string]int {
	t.Helper()
	e := amorphousEngine(t, 64,
		netlist.Adder(8), netlist.Counter(8), netlist.Multiplier(4), netlist.Parity(16))
	w := map[string]int{}
	for name, c := range e.Lib {
		w[name] = c.BS.W
	}
	return w
}

// amTask spawns a one-op task; the kernel is not run, so the task sits
// at its first op and Acquire can be driven directly.
func amTask(t *testing.T, os *hostos.OS, name string, op hostos.Op) *hostos.Task {
	t.Helper()
	task, err := os.Spawn(name, 0, []hostos.Op{op})
	if err != nil {
		t.Fatal(err)
	}
	return task
}

func amFixture(t *testing.T, cols int, nls ...*netlist.Netlist) (*Engine, *AmorphousManager, *hostos.OS) {
	t.Helper()
	k := sim.New()
	e := amorphousEngine(t, cols, nls...)
	am := NewAmorphousManager(k, e, nil)
	os := hostos.New(k, hostos.Config{Policy: hostos.FIFO}, am, nil)
	return e, am, os
}

func TestAmorphousAdoptionCache(t *testing.T) {
	e, am, os := amFixture(t, 24, netlist.Counter(8))
	a := amTask(t, os, "a", seqOp("counter8", 100))
	if _, ok := am.Acquire(a); !ok {
		t.Fatal("first acquire blocked")
	}
	if e.M.Loads != 1 {
		t.Fatalf("loads = %d", e.M.Loads)
	}
	w := e.Lib["counter8"].BS.W

	// Exit demotes the strip to a cached resident: still configured, no
	// owner, and the columns stay occupied.
	am.Remove(a)
	if f := am.Frag(); f.FreeCols != 24-w {
		t.Fatalf("after exit frag = %+v, want %d cached columns held", f, w)
	}
	views := am.Regions()
	cached := 0
	for _, v := range views {
		if !v.Free && v.Owner == "" && v.Circuit == "counter8" {
			cached++
		}
	}
	if cached != 1 {
		t.Fatalf("cached strips = %d, regions %+v", cached, views)
	}

	// A later task with the same circuit adopts the strip in place: no
	// download, but a sequential adoptee gets its stale flip-flops reset.
	b := amTask(t, os, "b", seqOp("counter8", 100))
	if _, ok := am.Acquire(b); !ok {
		t.Fatal("adopting acquire blocked")
	}
	if e.M.Loads != 1 {
		t.Fatalf("adoption reloaded: loads = %d", e.M.Loads)
	}
	if am.byTask[b.ID] == nil {
		t.Fatal("adopter not recorded as owner")
	}
}

func TestAmorphousCacheReclaimUnderSpacePressure(t *testing.T) {
	w := stripWidths(t)
	wa, wc, wm := w["adder8"], w["counter8"], w["mul4"]
	cols := wa + wc
	if wm > cols {
		t.Fatalf("mul4 (%d cols) wider than adder8+counter8 (%d): test geometry assumption broken", wm, cols)
	}
	e, am, os := amFixture(t, cols,
		netlist.Adder(8), netlist.Counter(8), netlist.Multiplier(4))

	for _, tc := range []struct {
		name string
		op   hostos.Op
	}{{"a", fpgaOp("adder8", 100)}, {"b", seqOp("counter8", 100)}} {
		task := amTask(t, os, tc.name, tc.op)
		if _, ok := am.Acquire(task); !ok {
			t.Fatalf("%s blocked", tc.name)
		}
		am.Remove(task)
	}
	// Device now fully occupied by two caches; the wide request must
	// reclaim them (LRU first) to open a hole.
	d := amTask(t, os, "d", fpgaOp("mul4", 100))
	if _, ok := am.Acquire(d); !ok {
		t.Fatal("wide acquire blocked despite reclaimable caches")
	}
	if got := e.M.Loads; got != 3 {
		t.Fatalf("loads = %d, want 3 (two cached + one fresh)", got)
	}
	for _, v := range am.Regions() {
		if !v.Free && v.Owner == "" {
			t.Fatalf("cache survived reclaim: %+v", v)
		}
	}
}

func TestAmorphousSlideMergesHoles(t *testing.T) {
	w := stripWidths(t)
	wp, wc, wm := w["parity16"], w["counter8"], w["mul4"]
	if wp >= wm {
		t.Fatalf("parity16 (%d cols) not narrower than mul4 (%d): test geometry assumption broken", wp, wm)
	}
	cols := wp + wc + wm - 1
	e, am, os := amFixture(t, cols,
		netlist.Parity(16), netlist.Counter(8), netlist.Multiplier(4))

	a := amTask(t, os, "a", fpgaOp("parity16", 100))
	b := amTask(t, os, "b", seqOp("counter8", 100))
	for _, task := range []*hostos.Task{a, b} {
		if _, ok := am.Acquire(task); !ok {
			t.Fatalf("%s blocked", task.Name)
		}
	}
	// a's exit leaves its strip cached at the left and the undersized
	// tail the only hole. The wide request reclaims the cache, which opens
	// a second hole at the left, neither wide enough alone.
	am.Remove(a)
	if free := am.rm.FreeList(); len(free) != 1 || free[0].W >= wm || wp+free[0].W < wm {
		t.Fatalf("precondition free spans = %+v, want one hole < %d beside a %d-column cache", free, wm, wp)
	}

	d := amTask(t, os, "d", fpgaOp("mul4", 100))
	if _, ok := am.Acquire(d); !ok {
		t.Fatal("wide acquire blocked despite sufficient total free space")
	}
	for _, v := range am.Regions() {
		if !v.Free && v.Owner == "" {
			t.Fatalf("cache survived the reclaim: %+v", v)
		}
	}
	if e.M.Relocations < 1 || e.M.GCRuns != 1 {
		t.Fatalf("relocations = %d, gc runs = %d: boundary slide not charged",
			e.M.Relocations, e.M.GCRuns)
	}
	// One strip slid, one hole erased: the remaining free space (wp-1
	// columns; possibly none) is one contiguous hole.
	if f := am.Frag(); f.FreeCols != wp-1 || f.Ratio() != 0 {
		t.Fatalf("after slide frag = %+v, want %d contiguous free", f, wp-1)
	}
}

func TestAmorphousRotationSavesAndRestores(t *testing.T) {
	w := stripWidths(t)
	wp, wc, wm := w["parity16"], w["counter8"], w["mul4"]
	cols := wm + wc + wp - 1 // no initial fit for mul4, room for counter8 after
	e, am, os := amFixture(t, cols,
		netlist.Parity(16), netlist.Counter(8), netlist.Multiplier(4))

	b := amTask(t, os, "b", seqOp("counter8", 1000))
	a := amTask(t, os, "a", fpgaOp("parity16", 100))
	for _, task := range []*hostos.Task{b, a} {
		if _, ok := am.Acquire(task); !ok {
			t.Fatalf("%s blocked", task.Name)
		}
	}
	// The wide request finds no hole and no cache, and the free columns
	// are short of it, so sliding cannot help: rotation evicts an LRU
	// owner — the sequential victim's state is saved on the way out.
	d := amTask(t, os, "d", fpgaOp("mul4", 100))
	if _, ok := am.Acquire(d); !ok {
		t.Fatal("wide acquire blocked despite evictable owners")
	}
	if e.M.Evictions < 1 {
		t.Fatal("rotation evicted nothing")
	}
	if e.M.Readbacks < 1 {
		t.Fatal("sequential victim's state not saved")
	}
	if len(am.saved) != 1 {
		t.Fatalf("saved-state entries = %d, want 1", len(am.saved))
	}
	// The displaced task comes back: fresh download plus a restore of the
	// saved flip-flop state, which is then consumed.
	if _, ok := am.Acquire(b); !ok {
		t.Fatal("displaced task could not reacquire")
	}
	if e.M.Restores != 1 {
		t.Fatalf("restores = %d, want 1", e.M.Restores)
	}
	if len(am.saved) != 0 {
		t.Fatalf("saved state not consumed: %d entries", len(am.saved))
	}
}

func TestAmorphousBlockAndWake(t *testing.T) {
	w := stripWidths(t)
	if w["parity16"] > w["mul4"] {
		t.Fatalf("parity16 (%d cols) wider than mul4 (%d): test geometry assumption broken", w["parity16"], w["mul4"])
	}
	k := sim.New()
	e := amorphousEngine(t, w["mul4"], netlist.Multiplier(4), netlist.Parity(16))
	am := NewAmorphousManager(k, e, nil)
	os := hostos.New(k, hostos.Config{
		Policy: hostos.RR, TimeSlice: 50 * sim.Microsecond, CtxSwitch: 5 * sim.Microsecond,
	}, am, nil)
	// Two tasks, a one-strip device: round-robin gives b the CPU while a's
	// long FPGA op is preempted mid-stream, so a's strip is pinned and
	// rotation cannot take it. b must suspend until a exits, then be woken;
	// it reclaims a's cached mul4 strip for its own circuit and runs to
	// completion.
	if _, err := os.Spawn("a", 0, []hostos.Op{
		fpgaOp("mul4", 1_000_000), hostos.Compute(sim.Millisecond),
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Spawn("b", 0, []hostos.Op{fpgaOp("parity16", 100)}); err != nil {
		t.Fatal(err)
	}
	k.Run()
	if !os.AllDone() {
		t.Fatal("waiter never woken")
	}
	if e.M.Blocks < 1 {
		t.Fatalf("blocks = %d, want >= 1", e.M.Blocks)
	}
	if e.M.Loads != 2 {
		t.Fatalf("loads = %d", e.M.Loads)
	}
}

func TestRegionMapViews(t *testing.T) {
	rm := NewRegionMap(20, nil)
	if rm.Cols() != 20 {
		t.Fatalf("cols = %d", rm.Cols())
	}
	a := rm.Alloc(rm.FindFree(4, FirstFit), 4, "a")
	rm.Alloc(rm.FindFree(3, FirstFit), 3, "b")
	c := rm.Alloc(rm.FindFree(5, FirstFit), 5, "c")
	rm.Release(a)
	free := rm.FreeList()
	if len(free) != 2 || free[0].X != 0 || free[0].W != 4 || free[1].X != 12 || free[1].W != 8 {
		t.Fatalf("free list = %+v", free)
	}
	in := rm.SpansIn(4, 12)
	if len(in) != 2 || in[0].Owner != "b" || in[1] != c {
		t.Fatalf("spans in [4,12) = %+v", in)
	}
	if in := rm.SpansIn(5, 12); len(in) != 1 || in[0] != c {
		t.Fatalf("partial overlap not excluded: %+v", in)
	}
}

func TestPartitionFragStats(t *testing.T) {
	k := sim.New()
	e := newEngine(t, testOptions())
	pm, err := NewPartitionManager(k, e, PartitionConfig{Mode: VariablePartitions, Fit: BestFit}, nil)
	if err != nil {
		t.Fatal(err)
	}
	f := pm.Frag()
	if f.Cols != e.Opt.Geometry.Cols || f.FreeCols != f.Cols || len(pm.rm.FreeList()) != 1 || f.Ratio() != 0 {
		t.Fatalf("empty-device frag = %+v, free spans %+v", f, pm.rm.FreeList())
	}
}
