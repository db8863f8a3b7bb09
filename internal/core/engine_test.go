package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/compile"
	"repro/internal/fabric"
	"repro/internal/fault"
	"repro/internal/hostos"
	"repro/internal/netlist"
	"repro/internal/sim"
)

func TestExecQuantumApriori(t *testing.T) {
	e := NewEngine(testOptions(), nil)
	if got := e.ExecQuantum(100*sim.Microsecond, 1); got != 100*sim.Microsecond {
		t.Fatalf("a-priori quantum %v", got)
	}
	if got := e.ExecQuantum(100*sim.Microsecond, 3); got != 300*sim.Microsecond {
		t.Fatalf("muxed quantum %v", got)
	}
	if got := e.ExecQuantum(0, 5); got != 0 {
		t.Fatalf("zero work quantum %v", got)
	}
}

func TestExecQuantumDoneSignalQuantizes(t *testing.T) {
	opt := testOptions()
	opt.Completion = DoneSignal
	e := NewEngine(opt, nil)
	// 250us of work -> 3 polls -> 300us + 3us poll cost.
	if got := e.ExecQuantum(250*sim.Microsecond, 1); got != 303*sim.Microsecond {
		t.Fatalf("done-signal quantum %v, want 303us", got)
	}
	// Exactly one interval -> one poll.
	if got := e.ExecQuantum(100*sim.Microsecond, 1); got != 101*sim.Microsecond {
		t.Fatalf("exact-interval quantum %v, want 101us", got)
	}
}

func TestCircuitLookupError(t *testing.T) {
	e := NewEngine(testOptions(), nil)
	if _, err := e.Circuit("nope"); err == nil {
		t.Fatal("unknown circuit accepted")
	}
}

func TestAddCircuitIdempotent(t *testing.T) {
	e := NewEngine(testOptions(), nil)
	if err := e.AddCircuit(netlist.Adder(8)); err != nil {
		t.Fatal(err)
	}
	before := e.Lib["adder8"]
	if err := e.AddCircuit(netlist.Adder(8)); err != nil {
		t.Fatal(err)
	}
	if e.Lib["adder8"] != before {
		t.Fatal("re-registration replaced the compiled circuit")
	}
}

func TestBindingWrapsWhenShort(t *testing.T) {
	e := newEngine(t, testOptions())
	c := e.Lib["adder8"]
	// Three pins, and one short of the ports: more than the inputs.
	for _, n := range []int{3, c.BS.NumIn + c.BS.NumOut - 1} {
		pins := make([]int, n)
		for i := range pins {
			pins[i] = 2 * i
		}
		in, out := binding(c, pins)
		if len(in) != c.BS.NumIn || len(out) != c.BS.NumOut {
			t.Fatalf("%d pins: binding lengths %d/%d, want %d/%d", n, len(in), len(out), c.BS.NumIn, c.BS.NumOut)
		}
		for i, p := range append(append([]int{}, in...), out...) {
			if p != pins[i%n] {
				t.Fatalf("%d pins: port %d bound to pin %d, want %d: ports wrap around the pins in order", n, i, p, pins[i%n])
			}
		}
	}
	// Empty pin set leaves everything unbound.
	in, out := binding(c, nil)
	for _, p := range append(append([]int{}, in...), out...) {
		if p != -1 {
			t.Fatal("empty allocation should leave ports unbound")
		}
	}
}

// With a full pin set the pins are the binding: inputs then outputs, in
// order, cut from the pins' own array (capped, so an append to the
// inputs cannot reach the outputs) without allocating.
func TestBindingSharesAFullPinSet(t *testing.T) {
	e := newEngine(t, testOptions())
	c := e.Lib["adder8"]
	pins := make([]int, c.BS.NumIn+c.BS.NumOut)
	for i := range pins {
		pins[i] = 3*i + 1
	}
	in, out := binding(c, pins)
	if len(in) != c.BS.NumIn || len(out) != c.BS.NumOut || cap(in) != c.BS.NumIn {
		t.Fatalf("binding lengths %d/%d (cap %d), want %d/%d", len(in), len(out), cap(in), c.BS.NumIn, c.BS.NumOut)
	}
	if &in[0] != &pins[0] || &out[0] != &pins[c.BS.NumIn] {
		t.Fatal("a full pin set was copied, not shared")
	}
	if n := testing.AllocsPerRun(100, func() { in, out = binding(c, pins) }); n != 0 {
		t.Errorf("binding a full pin set allocates %v times, want 0", n)
	}
}

func TestUtilizationTracksLoadsAndEvictions(t *testing.T) {
	h, _ := dynHarness(t, testOptions(), hostos.Config{Policy: hostos.FIFO})
	h.OS.Spawn("a", 0, []hostos.Op{fpgaOp("adder8", 100)})
	h.K.Run()
	if h.E.M.Util.Max() <= 0 {
		t.Fatal("utilization never rose")
	}
}

// AllocPins is allocPins into an array of the pins' own, the pool as
// the property test and the churn benchmark drive it.
func (e *Engine) AllocPins(want int) (pins []int, mux int, err error) {
	var own []int
	return e.allocPins(want, &own, 0)
}

// refPinPool is the pin pool as it was before the bitset, kept as the
// reference the property test below compares against: a sorted slice,
// allocations cut from its front, frees appended and the whole re-sorted.
type refPinPool []int

func (p *refPinPool) alloc(want int) (pins []int, mux int, ok bool) {
	if want == 0 {
		return nil, 1, true
	}
	if len(*p) == 0 {
		return nil, 0, false
	}
	n := want
	if n > len(*p) {
		n = len(*p)
	}
	pins = append(pins, (*p)[:n]...)
	*p = (*p)[n:]
	return pins, (want + n - 1) / n, true
}

func (p *refPinPool) free(pins []int) {
	*p = append(*p, pins...)
	sort.Ints(*p)
}

// TestPinPoolMatchesSortedReference: over random alloc/free sequences —
// whole and partial frees in any order, requests beyond what is free
// (multiplexing), requests of zero, requests on an empty pool — the engine
// hands out exactly the pins, in exactly the order, with exactly the mux
// factor of the append-and-sort pool, and never touches a slice it is
// handed. Pin counts that are not a multiple of the bitset's word size are
// included.
func TestPinPoolMatchesSortedReference(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		opt := testOptions()
		opt.Geometry.PinsPerSide = []int{1, 5, 16, 25, 48}[r.Intn(5)]
		total := opt.Geometry.NumPins()
		e := NewEngine(opt, nil)
		ref := make(refPinPool, total)
		for p := range ref {
			ref[p] = p
		}
		var held [][]int
		for step := 0; step < 300; step++ {
			switch op := r.Intn(10); {
			case op < 5:
				want := r.Intn(total/3 + 2)
				if r.Intn(8) == 0 {
					want = e.FreePinCount() + 1 + r.Intn(total) // more than is free
				}
				got, mux, err := e.AllocPins(want)
				wantPins, wantMux, ok := ref.alloc(want)
				if (err == nil) != ok || mux != wantMux || !reflect.DeepEqual(got, wantPins) {
					t.Errorf("seed %d step %d: AllocPins(%d) = %v mux %d err %v, reference %v mux %d ok %v",
						seed, step, want, got, mux, err, wantPins, wantMux, ok)
					return false
				}
				if len(got) > 0 {
					held = append(held, got)
				}
			case len(held) > 0:
				// Free all of one allocation, or a shuffled part of it.
				i := r.Intn(len(held))
				pins := held[i]
				r.Shuffle(len(pins), func(a, b int) { pins[a], pins[b] = pins[b], pins[a] })
				n := len(pins)
				if op < 8 {
					n = 1 + r.Intn(len(pins))
				}
				back, rest := pins[:n:n], pins[n:]
				before := append([]int(nil), back...)
				e.FreePins(back)
				ref.free(before)
				if !reflect.DeepEqual(back, before) {
					t.Errorf("seed %d step %d: FreePins changed its argument: %v -> %v", seed, step, before, back)
					return false
				}
				if held[i] = rest; len(rest) == 0 {
					held = append(held[:i], held[i+1:]...)
				}
			}
			if e.FreePinCount() != len(ref) {
				t.Errorf("seed %d step %d: %d pins free, reference %d", seed, step, e.FreePinCount(), len(ref))
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

func TestFreePinsTwicePanics(t *testing.T) {
	e := NewEngine(testOptions(), nil)
	pins, _, err := e.AllocPins(3)
	if err != nil {
		t.Fatal(err)
	}
	e.FreePins(pins)
	defer func() {
		if recover() == nil {
			t.Fatal("a pin freed twice went unnoticed; two circuits could be bound to it")
		}
	}()
	e.FreePins(pins[:1])
}

// BenchmarkPinPool is the pool under eviction churn on the default 192
// pins: eight residents of a circuit's worth of ports each, the oldest
// freed for every newcomer.
func BenchmarkPinPool(b *testing.B) {
	opt := DefaultOptions()
	opt.Geometry = fabric.DefaultGeometry()
	e := NewEngine(opt, nil)
	sizes := [...]int{17, 34, 25, 12, 30, 9, 28} // any eight in a row fit 192 pins
	var held [8][]int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		slot := &held[i%len(held)]
		e.FreePins(*slot)
		pins, mux, err := e.AllocPins(sizes[i%len(sizes)])
		if err != nil || mux != 1 {
			b.Fatalf("AllocPins: mux %d, %v", mux, err)
		}
		*slot = pins
	}
}

// engineView is everything of an engine a run observes, its device
// apart (the board erases that): the options, library, metrics, pin
// pool, residency table and what the ledger is bound to, with the
// ledger's record arrays by how much of them is carved: in the current
// array and over the job.
type engineView struct {
	Opt       Options
	Lib       map[string]*compile.Circuit
	M         Metrics
	FreePins  []uint64
	NFree     int
	Residents []Resident
	K         *sim.Kernel
	Log       *DeviceLog
	Inj       *fault.Injector
	Carved    [4]int
}

func viewOf(e *Engine) engineView {
	l := &e.led
	return engineView{
		Opt: e.Opt, Lib: e.Lib, M: e.M, FreePins: e.freePins, NFree: e.nFree,
		Residents: l.Residents(), K: l.k, Log: l.log, Inj: l.inj,
		Carved: [4]int{len(l.resBuf), len(l.pinBuf), l.records, l.pinned},
	}
}

// An engine renewed after a dirty job — strips still resident and
// holding pins, one evicted, metrics counted, a log and a fault
// injector attached — is a new engine on every observable field, and
// the next job's downloads get the same pins and records on it as on a
// new one.
func TestRenewedEngineEqualsFresh(t *testing.T) {
	opt := testOptions()
	e := newEngine(t, opt)
	adder, mul := e.Lib["adder8"], e.Lib["mul4"]
	led := e.Ledger()
	led.Bind(sim.New())
	led.AttachLog(NewDeviceLog())
	plan, err := fault.ParseSpec("seed=3,retries=4,config-error=0.3")
	if err != nil {
		t.Fatal(err)
	}
	led.InjectFaults(fault.NewInjector(plan))
	for i, c := range []*compile.Circuit{adder, mul, e.Lib["counter8"]} {
		if _, _, err := led.TryLoad(fmt.Sprint("t", i), c, 6*i, false); err != nil {
			t.Fatal(err)
		}
	}
	led.Evict(6)
	if e.FreePinCount() == opt.Geometry.NumPins() || len(led.Residents()) != 2 {
		t.Fatalf("the dirty job left %d pins free and %d residents", e.FreePinCount(), len(led.Residents()))
	}

	e.Dev.Erase()
	renewed := NewEngine(opt, e)
	if renewed != e {
		t.Fatal("NewEngine did not renew the used engine in place")
	}
	fresh := NewEngine(opt, nil)
	if got, want := viewOf(renewed), viewOf(fresh); !reflect.DeepEqual(got, want) {
		t.Fatalf("renewed engine differs from a new one:\nrenewed: %+v\nnew:     %+v", got, want)
	}
	for _, x := range []*Engine{renewed, fresh} {
		x.Ledger().Bind(sim.New())
		for i, c := range []*compile.Circuit{mul, adder} {
			if _, _, err := x.Ledger().TryLoad("n", c, 8*i, false); err != nil {
				t.Fatal(err)
			}
		}
	}
	if got, want := viewOf(renewed), viewOf(fresh); !reflect.DeepEqual(got.Residents, want.Residents) || got.NFree != want.NFree {
		t.Fatalf("the next job's downloads differ:\nrenewed: %+v\nnew:     %+v", got.Residents, want.Residents)
	}
}
