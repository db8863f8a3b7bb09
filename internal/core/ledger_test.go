package core

import (
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/compile"
	"repro/internal/fabric"
	"repro/internal/fault"
	"repro/internal/sim"
)

// ledgerFixture returns an engine with the test library, a bound kernel
// and an attached device log.
func ledgerFixture(t *testing.T) (*Engine, *Ledger, *DeviceLog) {
	t.Helper()
	e := newEngine(t, testOptions())
	led := e.Ledger()
	led.Bind(sim.New())
	log := NewDeviceLog()
	led.AttachLog(log)
	return e, led, log
}

func TestLedgerLoadRecordsResidency(t *testing.T) {
	e, led, log := ledgerFixture(t)
	c := e.Lib["adder8"]
	mux, cost, err := led.TryLoad("a", c, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	if mux < 1 || cost <= 0 {
		t.Fatalf("mux=%d cost=%v", mux, cost)
	}
	if cost != c.BS.ConfigCost(e.Opt.Timing) {
		t.Fatalf("cost = %v, want strip config cost %v", cost, c.BS.ConfigCost(e.Opt.Timing))
	}
	r := led.ResidentAt(0)
	if r == nil || r.Circuit != "adder8" || r.Owner != "a" {
		t.Fatalf("resident = %+v", r)
	}
	if e.M.Loads != 1 || e.M.ConfigTime != cost {
		t.Fatalf("loads=%d configTime=%v", e.M.Loads, e.M.ConfigTime)
	}
	if n := len(log.Events()); n != 1 || log.Events()[0].Op != OpLoad {
		t.Fatalf("events = %v", log.Events())
	}
}

func TestLedgerLoadWholeDeviceCost(t *testing.T) {
	// With partial reconfiguration, a whole-device load still only pays the
	// strip's own download; without it, the full serial configuration time.
	e, led, _ := ledgerFixture(t)
	c := e.Lib["adder8"]
	_, cost, err := led.TryLoad("a", c, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	if want := c.BS.ConfigCost(e.Opt.Timing); e.Opt.Timing.PartialReconfig && cost != want {
		t.Fatalf("cost = %v, want strip cost %v under partial reconfiguration", cost, want)
	}
	led.Release(0)
	e.Opt.Timing.PartialReconfig = false
	_, cost, err = led.TryLoad("a", c, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	if want := e.Opt.Timing.FullConfigTime(e.Opt.Geometry); cost != want {
		t.Fatalf("cost = %v, want full-device %v", cost, want)
	}
}

func TestLedgerLoadOccupiedColumnFails(t *testing.T) {
	e, led, _ := ledgerFixture(t)
	led.Load("a", e.Lib["adder8"], 0, false)
	if _, _, err := led.TryLoad("b", e.Lib["mul4"], 0, false); err == nil {
		t.Fatal("double load at column 0 accepted")
	}
}

func TestLedgerEvictVsRelease(t *testing.T) {
	e, led, log := ledgerFixture(t)
	led.Load("a", e.Lib["adder8"], 0, false)
	led.Evict(0)
	led.Load("b", e.Lib["adder8"], 0, false)
	led.Release(0)
	if e.M.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1 (release is voluntary)", e.M.Evictions)
	}
	evs := log.Events()
	if len(evs) != 4 || evs[1].Voluntary || !evs[3].Voluntary {
		t.Fatalf("events = %v", evs)
	}
	if led.ResidentAt(0) != nil {
		t.Fatal("residency survived eviction")
	}
	if e.FreePinCount() != e.Opt.Geometry.NumPins() {
		t.Fatalf("pins leaked: %d free of %d", e.FreePinCount(), e.Opt.Geometry.NumPins())
	}
}

func TestLedgerResetChargesRestoreTimeNotCounter(t *testing.T) {
	e, led, _ := ledgerFixture(t)
	c := e.Lib["counter8"]
	led.Load("a", c, 0, false)
	cost := led.Reset("a", c, c.BS.Region(0, 0))
	if cost <= 0 {
		t.Fatal("reset should cost a state write")
	}
	if e.M.Restores != 0 {
		t.Fatalf("restores = %d, want 0 (reset is not a restore of saved state)", e.M.Restores)
	}
	if e.M.RestoreTime != cost {
		t.Fatalf("restoreTime = %v, want %v", e.M.RestoreTime, cost)
	}
}

func TestLedgerReadbackRestoreRoundTrip(t *testing.T) {
	e, led, _ := ledgerFixture(t)
	c := e.Lib["counter8"]
	led.Load("a", c, 0, false)
	region := c.BS.Region(0, 0)
	led.Reset("a", c, region)
	st, rcost := led.Readback("a", c, region)
	if rcost <= 0 || len(st) == 0 {
		t.Fatalf("readback cost=%v state=%d bits", rcost, len(st))
	}
	if cost := led.Restore("a", c, region, st); cost <= 0 {
		t.Fatal("restore should cost a state write")
	}
	if e.M.Readbacks != 1 || e.M.Restores != 1 {
		t.Fatalf("readbacks=%d restores=%d", e.M.Readbacks, e.M.Restores)
	}
}

func TestLedgerRelocateMovesResidencyAndState(t *testing.T) {
	e, led, _ := ledgerFixture(t)
	c := e.Lib["counter8"]
	led.Load("a", c, 4, false)
	led.Reset("a", c, c.BS.Region(4, 0))
	before := e.Dev.ReadRegionState(c.BS.Region(4, 0))
	readbacks := e.M.Readbacks
	cost := led.Relocate(4, 0)
	if cost <= 0 {
		t.Fatal("relocation of a sequential circuit must cost time")
	}
	if led.ResidentAt(4) != nil {
		t.Fatal("old column still resident")
	}
	r := led.ResidentAt(0)
	if r == nil || r.Circuit != "counter8" || r.Region.X != 0 {
		t.Fatalf("resident after relocate = %+v", r)
	}
	after := e.Dev.ReadRegionState(c.BS.Region(0, 0))
	if len(after) != len(before) {
		t.Fatalf("state length changed: %d -> %d", len(before), len(after))
	}
	for i := range after {
		if after[i] != before[i] {
			t.Fatalf("FF %d lost across relocation", i)
		}
	}
	if e.M.Relocations != 1 {
		t.Fatalf("relocations = %d", e.M.Relocations)
	}
	if e.M.Readbacks != readbacks+1 {
		t.Fatalf("sequential relocation should read back state once")
	}
	if led.Relocate(0, 0) != 0 {
		t.Fatal("no-op relocation should be free")
	}
}

// TestLedgerRelocateReadbackEscalationKeepsStrip pins the first half of
// Relocate's escalation contract: a readback whose retry budget is gone
// panics before the strip is touched, so it stays resident at its old
// column with nothing evicted, and the same move succeeds once the fault
// is spent. (TestRelocateEscalationDropsStrip covers the apply and
// restore halves, which drop the strip.)
func TestLedgerRelocateReadbackEscalationKeepsStrip(t *testing.T) {
	e, led, _ := ledgerFixture(t)
	led.Load("t0", e.Lib["counter8"], 4, false)
	plan, err := fault.ParseSpec("seed=3,retries=0,readback-flip@1")
	if err != nil {
		t.Fatal(err)
	}
	led.InjectFaults(fault.NewInjector(plan))

	func() {
		defer func() {
			if esc, ok := fault.AsEscalation(recover()); !ok || esc.Op != "readback" {
				t.Fatalf("escalation = %+v, want a typed panic with Op \"readback\"", esc)
			}
		}()
		led.Relocate(4, 0)
	}()
	if led.ResidentAt(4) == nil || e.M.Evictions != 0 || e.M.Relocations != 0 {
		t.Fatalf("strip not preserved: residents %+v, evictions %d, relocations %d",
			led.Residents(), e.M.Evictions, e.M.Relocations)
	}
	if led.Relocate(4, 0) <= 0 || led.ResidentAt(0) == nil || led.ResidentAt(4) != nil {
		t.Fatalf("retry did not move the strip: residents %+v", led.Residents())
	}
}

func TestLedgerAnnotations(t *testing.T) {
	e, led, log := ledgerFixture(t)
	led.NoteBlock("a")
	led.NoteGC()
	led.Rollback("a", "counter8")
	if e.M.Blocks != 1 || e.M.GCRuns != 1 || e.M.Rollbacks != 1 {
		t.Fatalf("blocks=%d gc=%d rollbacks=%d",
			e.M.Blocks, e.M.GCRuns, e.M.Rollbacks)
	}
	if len(log.Events()) != 3 {
		t.Fatalf("events = %v", log.Events())
	}
}

func TestLedgerPageOps(t *testing.T) {
	e, led, log := ledgerFixture(t)
	cost := led.LoadPage("a", "adder8", 2, 8)
	if cost != e.Opt.Timing.PartialConfigTime(8, 0) {
		t.Fatalf("page cost = %v", cost)
	}
	led.EvictPage("a", "adder8", 2)
	led.ReleasePage("a", "adder8", 3)
	if e.M.PageLoads != 1 || e.M.PageFaults != 1 {
		t.Fatalf("pageLoads=%d pageFaults=%d", e.M.PageLoads, e.M.PageFaults)
	}
	if e.M.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1 (release is voluntary)", e.M.Evictions)
	}
	evs := log.Events()
	if evs[0].Page != 2 || !strings.Contains(evs[0].String(), "page 2") {
		t.Fatalf("page event = %v", evs[0])
	}
}

func TestLedgerLintTarget(t *testing.T) {
	e, led, _ := ledgerFixture(t)
	led.Load("a", e.Lib["adder8"], 0, false)
	tgt := led.LintTarget("test")
	if tgt.Name != "test" || tgt.Device != e.Dev {
		t.Fatalf("target = %+v", tgt)
	}
}

// The attach/bind setters share the single-goroutine guard with the
// transaction methods, so wiring an engine from a second goroutine
// mid-operation trips the same assertion as any other concurrent use.
func TestLedgerSettersHoldGuard(t *testing.T) {
	_, led, _ := ledgerFixture(t)
	exit := led.enter() // simulate an operation in flight
	for name, call := range map[string]func(){
		"Bind":         func() { led.Bind(sim.New()) },
		"AttachLog":    func() { led.AttachLog(NewDeviceLog()) },
		"InjectFaults": func() { led.InjectFaults(nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s with an operation in flight did not panic", name)
				}
			}()
			call()
		}()
	}
	exit()
	led.Bind(sim.New()) // uncontended: must not panic
}

// TestLedgerResidencyProperty drives random TryLoad/Evict/Release/
// Relocate sequences (single moves and whole pack-left sweeps) through
// the ledger and checks the residency table against a plain occupancy
// bitmap after every operation: Residents() is sorted, disjoint and covers
// exactly the occupied columns.
func TestLedgerResidencyProperty(t *testing.T) {
	type strip struct{ x, w int }
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		e := newEngine(t, testOptions())
		led := e.Ledger()
		cols := e.Opt.Geometry.Cols
		circuits := []*compile.Circuit{e.Lib["adder8"], e.Lib["parity16"], e.Lib["counter8"], e.Lib["mul4"], e.Lib["acc8"]}
		occ := make([]bool, cols)
		var strips []strip
		mark := func(s strip, v bool) {
			for c := s.x; c < s.x+s.w; c++ {
				occ[c] = v
			}
		}
		isFree := func(s strip) bool {
			for c := s.x; c < s.x+s.w; c++ {
				if occ[c] {
					return false
				}
			}
			return true
		}
		for op := 0; op < 2000; op++ {
			switch k := rng.Intn(20); {
			case k == 0:
				// Pack left, the multi-strip move a manager's GC makes.
				sort.Slice(strips, func(i, j int) bool { return strips[i].x < strips[j].x })
				clear(occ)
				x := 0
				for i := range strips {
					led.Relocate(strips[i].x, x)
					strips[i].x = x
					mark(strips[i], true)
					x += strips[i].w
				}
			case k < 8 && len(strips) > 0:
				i := rng.Intn(len(strips))
				if k%2 == 0 {
					led.Evict(strips[i].x)
				} else {
					led.Release(strips[i].x)
				}
				mark(strips[i], false)
				strips = append(strips[:i], strips[i+1:]...)
			case k < 12 && len(strips) > 0:
				i := rng.Intn(len(strips))
				mark(strips[i], false) // a strip may move onto its own extent
				to := strip{rng.Intn(cols - strips[i].w + 1), strips[i].w}
				if isFree(to) {
					led.Relocate(strips[i].x, to.x)
					strips[i] = to
				}
				mark(strips[i], true)
			default:
				c := circuits[rng.Intn(len(circuits))]
				s := strip{rng.Intn(cols - c.BS.W + 1), c.BS.W}
				if !isFree(s) {
					continue
				}
				if _, _, err := led.TryLoad("t", c, s.x, false); err != nil {
					if e.FreePinCount() != 0 {
						t.Fatalf("seed %d op %d: load into free columns: %v", seed, op, err)
					}
					continue
				}
				mark(s, true)
				strips = append(strips, s)
			}
			covered, at := 0, 0
			for _, r := range led.Residents() {
				if r.Region.X < at {
					t.Fatalf("seed %d op %d: residents unsorted or overlapping: %+v", seed, op, led.Residents())
				}
				for c := r.Region.X; c < r.Region.X+r.Region.W; c++ {
					if !occ[c] {
						t.Fatalf("seed %d op %d: resident %s covers free column %d", seed, op, r.Circuit, c)
					}
				}
				at = r.Region.X + r.Region.W
				covered += r.Region.W
			}
			occupied := 0
			for _, o := range occ {
				if o {
					occupied++
				}
			}
			if covered != occupied {
				t.Fatalf("seed %d op %d: residents cover %d columns, bitmap has %d occupied", seed, op, covered, occupied)
			}
		}
	}
}

// TestLedgerResidencyPanics pins the table's safety checks: resident
// strips are disjoint and inside the device, and only a resident strip
// can be evicted. TryLoad itself tests equal origins only.
func TestLedgerResidencyPanics(t *testing.T) {
	for name, f := range map[string]func(e *Engine, led *Ledger){
		"load-overlapping": func(e *Engine, led *Ledger) { led.Load("b", e.Lib["parity16"], 1, false) },
		"load-straddling":  func(e *Engine, led *Ledger) { led.Load("b", e.Lib["adder8"], e.Lib["adder8"].BS.W-1, false) },
		"load-past-device": func(e *Engine, led *Ledger) { led.Load("b", e.Lib["adder8"], e.Opt.Geometry.Cols-1, false) },
		"evict-empty":      func(e *Engine, led *Ledger) { led.Evict(e.Lib["adder8"].BS.W) },
		// Apply refuses the load above before the table sees it; the table
		// keeps its own bound all the same.
		"insert-past-device": func(e *Engine, led *Ledger) {
			led.insert(&Resident{Circuit: "x", Region: fabric.Region{X: e.Opt.Geometry.Cols - 1, W: 2}})
		},
	} {
		t.Run(name, func(t *testing.T) {
			e, led, _ := ledgerFixture(t)
			if w := e.Lib["adder8"].BS.W; w < 2 {
				t.Fatalf("adder8 is %d columns wide: test geometry assumption broken", w)
			}
			led.Load("a", e.Lib["adder8"], 0, false)
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			f(e, led)
		})
	}
}

// TestLedgerOpAllocs guards the fault-free cost of a download and a
// state round trip: the closures handed to the shared attempt loop stay
// on the stack, the residency entry and its pins are carved from the
// ledger's arrays (one array serves many loads), and a full pin set is
// its own port binding. What is left is the readback's state vector.
func TestLedgerOpAllocs(t *testing.T) {
	e := newEngine(t, testOptions())
	led := e.Ledger()
	c := e.Lib["counter8"]
	region := c.BS.Region(0, 0)
	got := testing.AllocsPerRun(100, func() {
		led.Load("a", c, 0, false)
		st, _ := led.Readback("a", c, region)
		led.Restore("a", c, region, st)
		led.Evict(0)
	})
	if got > 1 {
		t.Fatalf("Load+Readback+Restore+Evict = %v allocs, want at most 1", got)
	}
}

// A renewed engine carves its job's residency entries and pins from one
// array of each, sized to what the last job carved over all its arrays:
// a board whose jobs download alike allocates none of them, though each
// job here downloads more strips than one record array holds.
func TestRenewedLedgerCarvesInPlace(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector defeats escape analysis")
	}
	opt := testOptions()
	e := newEngine(t, opt)
	c := e.Lib["adder8"]
	job := func() {
		e.Dev.Erase()
		e = NewEngine(opt, e)
		led := e.Ledger()
		for range 2*recordChunk + 1 {
			led.Load("t", c, 0, false)
			led.Evict(0)
		}
	}
	job() // the first renewal sizes the arrays
	if n := testing.AllocsPerRun(20, job); n != 0 {
		t.Errorf("a renewed engine's job allocates %v times, want 0", n)
	}
}

// A *Resident outlives its residency unchanged: held across Evict and
// the loads after it, it keeps the circuit, owner, region and pins it
// was loaded with, and is never the entry of a later load, even one that
// takes the same column and the same pins. Records and pins are carved
// append-only, never reused while the job lives.
func TestLedgerStaleResidentNeverAliases(t *testing.T) {
	e, led, _ := ledgerFixture(t)
	led.Load("a", e.Lib["adder8"], 0, false)
	old := led.ResidentAt(0)
	want := *old
	wantPins := append([]int(nil), old.Pins...)
	led.Evict(0)
	for i := range recordChunk + 1 { // past the end of the record array
		led.Load("b", e.Lib["mul4"], 0, false)
		r := led.ResidentAt(0)
		if r == old || &r.Pins[0] == &old.Pins[0] {
			t.Fatalf("load %d reuses the evicted entry's record or pins", i)
		}
		if r.Pins[0] != wantPins[0] {
			t.Fatalf("load %d: first pin %d, want %d: the pool hands out the lowest free pins", i, r.Pins[0], wantPins[0])
		}
		led.Evict(0)
	}
	if old.Circuit != want.Circuit || old.Owner != want.Owner || old.Region != want.Region || old.Mux != want.Mux ||
		!slices.Equal(old.Pins, wantPins) {
		t.Fatalf("stale entry changed: %+v pins %v, want %+v pins %v", *old, old.Pins, want, wantPins)
	}
}

// A resident whose ports share its pins (a full pin set, mux 1) is
// rebound to the same pins when garbage collection moves it: the entry
// keeps its pin slice, the inputs stay inputs and every output pin is
// driven from the strip's new columns.
func TestLedgerRelocateKeepsSharedPins(t *testing.T) {
	e, led, _ := ledgerFixture(t)
	c := e.Lib["adder8"]
	if mux, _ := led.Load("a", c, 4, false); mux != 1 {
		t.Fatalf("mux %d, want a full pin set", mux)
	}
	pins := led.ResidentAt(4).Pins
	want := append([]int(nil), pins...)
	led.Relocate(4, 0)
	r := led.ResidentAt(0)
	if r == nil || !slices.Equal(r.Pins, want) || &r.Pins[0] != &pins[0] {
		t.Fatalf("relocated entry %+v, want pins %v in the same slice", r, want)
	}
	for i, p := range r.Pins {
		cfg := e.Dev.Pin(p)
		if i < c.BS.NumIn {
			if cfg.Mode != fabric.PinInput {
				t.Fatalf("input pin %d mode %v after relocation", p, cfg.Mode)
			}
			continue
		}
		if d := cfg.Driver; cfg.Mode != fabric.PinOutput || d.Kind == fabric.SrcCLB && !r.Region.Contains(int(d.X), int(d.Y)) {
			t.Fatalf("output pin %d = %+v, want an output driven from %+v", p, cfg, r.Region)
		}
	}
	if e.FreePinCount() != e.Opt.Geometry.NumPins()-len(want) {
		t.Fatalf("%d pins free, want %d", e.FreePinCount(), e.Opt.Geometry.NumPins()-len(want))
	}
}

// BenchmarkLedgerLoadEvict is one job's downloads on a warm board: the
// last job's engine renewed over its erased device, then eight strips
// loaded at one column, each evicted for the next. Bytes and
// allocations beside the time are the ledger's per-job cost: the pins,
// port bindings and residency entries of its downloads.
func BenchmarkLedgerLoadEvict(b *testing.B) {
	opt := testOptions()
	lib := newEngine(b, opt).Lib
	circs := []*compile.Circuit{lib["adder8"], lib["parity16"], lib["counter8"], lib["mul4"], lib["acc8"]}
	e := NewEngine(opt, nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.Dev.Erase()
		e = NewEngine(opt, e)
		led := e.Ledger()
		for j := range 8 {
			led.Load("t", circs[j%len(circs)], 0, false)
			led.Evict(0)
		}
	}
}
