package core

import (
	"testing"

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
	opt.PollInterval = 100 * sim.Microsecond
	opt.PollCost = 1 * sim.Microsecond
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

func TestEngineDefaultsApplied(t *testing.T) {
	opt := testOptions()
	opt.PollInterval, opt.PollCost = 0, 0
	e := NewEngine(opt, nil)
	if e.Opt.PollInterval <= 0 || e.Opt.PollCost <= 0 {
		t.Fatal("poll defaults not applied")
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
	pins := []int{0, 1, 2}
	in, out := binding(c, pins)
	if len(in) != c.BS.NumIn || len(out) != c.BS.NumOut {
		t.Fatal("binding lengths wrong")
	}
	for _, p := range append(append([]int{}, in...), out...) {
		if p < 0 || p > 2 {
			t.Fatalf("binding pin %d outside the allocated set", p)
		}
	}
	// Empty pin set leaves everything unbound.
	in, out = binding(c, nil)
	for _, p := range append(append([]int{}, in...), out...) {
		if p != -1 {
			t.Fatal("empty allocation should leave ports unbound")
		}
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
