package core

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/sim"
	"repro/internal/trace"
)

func TestLedgerCompactPacksLeft(t *testing.T) {
	e, led, log := ledgerFixture(t)
	a, cnt := e.Lib["adder8"], e.Lib["counter8"]
	x1 := a.BS.W + 2
	x2 := x1 + cnt.BS.W + 3
	led.Load("t0", a, 0, false)
	led.Load("t1", cnt, x1, false)
	led.Load("t2", a, x2, false)

	wantCost := led.relocateEstimate(led.ResidentAt(x1)) + led.relocateEstimate(led.ResidentAt(x2))
	res := led.Compact(0)
	if !res.Done || res.Err != nil || res.Moved != 2 {
		t.Fatalf("compact = %+v", res)
	}
	if res.Cost != wantCost {
		t.Fatalf("cost = %v, want %v", res.Cost, wantCost)
	}
	for _, x := range []int{0, a.BS.W, a.BS.W + cnt.BS.W} {
		if led.ResidentAt(x) == nil {
			t.Fatalf("no resident at packed column %d; residents %+v", x, led.Residents())
		}
	}
	used := 2*a.BS.W + cnt.BS.W
	if f := led.Frag(); f.FreeSpans != 1 || f.LargestFree != e.Opt.Geometry.Cols-used || f.Ratio() != 0 {
		t.Fatalf("frag after pack = %+v", f)
	}
	var gcs, relocs int
	for _, ev := range log.Events() {
		switch ev.Op {
		case OpGC:
			gcs++
			if ev.Note != "compact" {
				t.Errorf("gc event note = %q, want compact", ev.Note)
			}
		case OpRelocate:
			relocs++
		}
	}
	if gcs != 1 || relocs != 2 {
		t.Fatalf("gc events = %d, relocate events = %d", gcs, relocs)
	}
	// A second pass finds nothing to do and emits nothing.
	before := len(log.Events())
	if res := led.Compact(0); !res.Done || res.Moved != 0 {
		t.Fatalf("second compact = %+v", res)
	}
	if len(log.Events()) != before || e.M.GCRuns.Value() != 1 {
		t.Fatal("idle compact emitted events or counted a GC run")
	}
}

func TestLedgerCompactBudget(t *testing.T) {
	e, led, _ := ledgerFixture(t)
	a, cnt := e.Lib["adder8"], e.Lib["counter8"]
	x1 := a.BS.W + 2
	x2 := x1 + cnt.BS.W + 3
	led.Load("t0", a, 0, false)
	led.Load("t1", cnt, x1, false)
	led.Load("t2", a, x2, false)
	est1 := led.relocateEstimate(led.ResidentAt(x1))

	// A budget below the first move's estimate does nothing — and charges
	// nothing.
	res := led.Compact(1)
	if res.Done || res.Moved != 0 || res.Cost != 0 || e.M.GCRuns.Value() != 0 {
		t.Fatalf("underbudget compact = %+v, gcruns = %d", res, e.M.GCRuns.Value())
	}
	// A budget covering exactly the first move performs it and stops.
	res = led.Compact(est1)
	if res.Done || res.Moved != 1 || res.Cost != est1 {
		t.Fatalf("one-move compact = %+v, want cost %v", res, est1)
	}
	// The next idle cycle finishes the job.
	res = led.Compact(0)
	if !res.Done || res.Moved != 1 {
		t.Fatalf("final compact = %+v", res)
	}
	if f := led.Frag(); f.Ratio() != 0 {
		t.Fatalf("frag after incremental pack = %+v", f)
	}
}

func TestLedgerCompactReadbackAbort(t *testing.T) {
	e, led, _ := ledgerFixture(t)
	cnt := e.Lib["counter8"]
	led.Load("t0", cnt, 4, false) // hole at 0..4 forces a move
	plan, err := fault.ParseSpec("seed=3,retries=0,readback-flip@1")
	if err != nil {
		t.Fatal(err)
	}
	led.InjectFaults(fault.NewInjector(plan))

	res := led.Compact(0)
	if res.Done || res.Moved != 0 {
		t.Fatalf("faulted compact = %+v", res)
	}
	if esc, ok := fault.AsEscalation(res.Err); !ok || esc.Op != "readback" {
		t.Fatalf("err = %v, want readback escalation", res.Err)
	}
	// A readback escalation aborts before the strip is touched: it stays
	// resident at its old column, nothing is evicted.
	if led.ResidentAt(4) == nil || e.M.Evictions.Value() != 0 {
		t.Fatalf("strip not preserved: residents %+v, evictions %d", led.Residents(), e.M.Evictions.Value())
	}
	// The scripted fault is spent; the retry on the next idle cycle wins.
	res = led.Compact(0)
	if !res.Done || res.Err != nil || res.Moved != 1 || led.ResidentAt(0) == nil {
		t.Fatalf("retry compact = %+v", res)
	}
}

func TestLedgerCompactConfigAbortDropsStrip(t *testing.T) {
	e, led, log := ledgerFixture(t)
	a := e.Lib["adder8"]
	pinsBefore := e.FreePinCount()
	led.Load("t0", a, 5, false)
	plan, err := fault.ParseSpec("seed=3,retries=0,config-error@1")
	if err != nil {
		t.Fatal(err)
	}
	led.InjectFaults(fault.NewInjector(plan))

	res := led.Compact(0)
	if res.Done || res.Moved != 0 {
		t.Fatalf("faulted compact = %+v", res)
	}
	if esc, ok := fault.AsEscalation(res.Err); !ok || esc.Op != "relocate" {
		t.Fatalf("err = %v, want relocate escalation", res.Err)
	}
	// The apply destroyed the strip mid-move: it is dropped cleanly —
	// residency gone, pins refunded, an involuntary eviction on the
	// timeline, and the fragmentation model back to one free hole.
	if len(led.Residents()) != 0 {
		t.Fatalf("residents = %+v, want none", led.Residents())
	}
	if got := e.FreePinCount(); got != pinsBefore {
		t.Fatalf("pins not refunded: %d free, want %d", got, pinsBefore)
	}
	if e.M.Evictions.Value() != 1 {
		t.Fatalf("evictions = %d, want 1", e.M.Evictions.Value())
	}
	if f := led.Frag(); f.FreeSpans != 1 || f.FreeCols != e.Opt.Geometry.Cols {
		t.Fatalf("frag = %+v, want fully free device", f)
	}
	var evicts int
	for _, ev := range log.Events() {
		if ev.Op == OpEvict && !ev.Voluntary {
			evicts++
		}
	}
	if evicts != 1 {
		t.Fatalf("involuntary evict events = %d, want 1", evicts)
	}
	// With the doomed strip gone, the next pass is a no-op.
	if res := led.Compact(0); !res.Done || res.Moved != 0 || res.Err != nil {
		t.Fatalf("post-abort compact = %+v", res)
	}
}

func TestLedgerCompactRestoreAbortDropsStrip(t *testing.T) {
	e, led, _ := ledgerFixture(t)
	cnt := e.Lib["counter8"]
	led.Load("t0", cnt, 4, false)
	plan, err := fault.ParseSpec("seed=3,retries=0,restore-mismatch@1")
	if err != nil {
		t.Fatal(err)
	}
	led.InjectFaults(fault.NewInjector(plan))

	res := led.Compact(0)
	if esc, ok := fault.AsEscalation(res.Err); !ok || esc.Op != "restore" {
		t.Fatalf("err = %v, want restore escalation", res.Err)
	}
	if len(led.Residents()) != 0 || e.M.Evictions.Value() != 1 {
		t.Fatalf("residents = %+v, evictions = %d", led.Residents(), e.M.Evictions.Value())
	}
	if f := led.Frag(); f.FreeSpans != 1 || f.FreeCols != e.Opt.Geometry.Cols {
		t.Fatalf("frag = %+v, want fully free device", f)
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
		})
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
	if got := e.M.Relocations.Value(); got != 1 {
		t.Fatalf("early-stop compact relocated %d strips, want 1", got)
	}
	if e.M.GCRuns.Value() != 1 {
		t.Fatalf("gc runs = %d", e.M.GCRuns.Value())
	}
	if _, largest := pm.FreeCols(); largest < need {
		t.Fatalf("largest hole = %d after compact, need %d", largest, need)
	}

	// The old full pack slides every out-of-place strip.
	e2, pm2, parts2 := build(t)
	pm2.drop(parts2[1].span, false)
	pm2.drop(parts2[3].span, false)
	pm2.compact(0)
	if full := e2.M.Relocations.Value(); full <= 1 {
		t.Fatalf("full pack relocated %d strips, expected more than the early stop's 1", full)
	}
}

// TestCompactEventsOnTimeline pins that a compaction pass shows up on
// the merged scheduler+device timeline: one gc event annotated
// "compact" followed by its relocate events.
func TestCompactEventsOnTimeline(t *testing.T) {
	e, led, log := ledgerFixture(t)
	led.Load("t0", e.Lib["adder8"], 5, false)
	if res := led.Compact(0); !res.Done || res.Moved != 1 {
		t.Fatalf("compact = %+v", res)
	}
	_ = e
	tl := MergeTimeline(nil, log)
	tl.Sort()
	var gcAt, relocAt = -1, -1
	for i, ev := range tl.Events {
		if ev.Source != trace.SourceDevice {
			continue
		}
		if ev.Kind == "gc" && strings.Contains(ev.Detail, "compact") && gcAt < 0 {
			gcAt = i
		}
		if ev.Kind == "relocate" && relocAt < 0 {
			relocAt = i
		}
	}
	if gcAt < 0 || relocAt < 0 || gcAt > relocAt {
		t.Fatalf("timeline order gc=%d relocate=%d:\n%s", gcAt, relocAt, tl.String())
	}
}
