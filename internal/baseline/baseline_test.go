package baseline

import (
	"errors"
	"testing"

	"repro/internal/compile"
	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/hostos"
	"repro/internal/netlist"
	"repro/internal/sim"
	"repro/internal/workload"
)

func testEngine(t testing.TB) *core.Engine {
	t.Helper()
	opt := core.DefaultOptions()
	opt.Geometry = fabric.Geometry{Cols: 24, Rows: 8, TracksPerChannel: 12, PinsPerSide: 24}
	e := core.NewEngine(opt, nil)
	for _, nl := range []*netlist.Netlist{netlist.Adder(8), netlist.Parity(16), netlist.Counter(8)} {
		if err := e.AddCircuit(nl); err != nil {
			t.Fatal(err)
		}
	}
	return e
}

// compiled returns e's compiled circuits of the given names, in order.
func compiled(e *core.Engine, names ...string) []*compile.Circuit {
	out := make([]*compile.Circuit, len(names))
	for i, name := range names {
		out[i] = e.Lib[name]
	}
	return out
}

func fpgaOp(circuit string, evals int64) hostos.Op {
	return hostos.UseFPGA(&hostos.FPGARequest{Circuit: circuit, Evaluations: evals})
}

func TestExclusiveSerializes(t *testing.T) {
	k := sim.New()
	e := testEngine(t)
	x := NewExclusive(k, e, nil)
	os := hostos.New(k, hostos.Config{Policy: hostos.RR, TimeSlice: sim.Millisecond}, x, nil)
	a, _ := os.Spawn("a", 0, []hostos.Op{fpgaOp("adder8", 100_000), hostos.Compute(2 * sim.Millisecond)})
	b, _ := os.Spawn("b", 0, []hostos.Op{hostos.Compute(100 * sim.Microsecond), fpgaOp("parity16", 100)})
	k.Run()
	if a.State() != hostos.TaskDone || b.State() != hostos.TaskDone {
		t.Fatal("not done")
	}
	if b.BlockWait == 0 {
		t.Fatal("b should have waited for the exclusive device")
	}
	if b.Finished <= a.Finished {
		t.Fatal("b must finish after a exits")
	}
	if e.M.Blocks == 0 {
		t.Fatal("blocks not counted")
	}
	if x.holder != nil {
		t.Fatal("device not released")
	}
}

func TestExclusiveNonPreemptable(t *testing.T) {
	k := sim.New()
	e := testEngine(t)
	x := NewExclusive(k, e, nil)
	os := hostos.New(k, hostos.Config{Policy: hostos.RR, TimeSlice: sim.Millisecond}, x, nil)
	hw, _ := os.Spawn("hw", 0, []hostos.Op{fpgaOp("adder8", 400_000)})
	os.Spawn("cpu", 0, []hostos.Op{hostos.Compute(sim.Millisecond)})
	k.Run()
	if hw.Preemptions != 0 {
		t.Fatal("exclusive op was preempted")
	}
}

func TestExclusiveSameTaskSwitchesCircuits(t *testing.T) {
	k := sim.New()
	e := testEngine(t)
	x := NewExclusive(k, e, nil)
	os := hostos.New(k, hostos.Config{Policy: hostos.FIFO}, x, nil)
	a, _ := os.Spawn("a", 0, []hostos.Op{fpgaOp("adder8", 10), fpgaOp("parity16", 10), fpgaOp("adder8", 10)})
	k.Run()
	if a.State() != hostos.TaskDone {
		t.Fatal("not done")
	}
	if e.M.Loads != 3 {
		t.Fatalf("loads = %d, want 3 (holder may still reconfigure)", e.M.Loads)
	}
}

func TestMergedZeroReconfig(t *testing.T) {
	k := sim.New()
	e := testEngine(t)
	m, initCost, err := NewMerged(k, e, compiled(e, "adder8", "parity16"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if initCost <= 0 {
		t.Fatal("no init cost")
	}
	loadsAfterInit := e.M.Loads
	os := hostos.New(k, hostos.Config{Policy: hostos.RR, TimeSlice: sim.Millisecond}, m, nil)
	a, _ := os.Spawn("a", 0, []hostos.Op{fpgaOp("adder8", 1000), fpgaOp("parity16", 1000), fpgaOp("adder8", 1000)})
	k.Run()
	if a.State() != hostos.TaskDone {
		t.Fatal("not done")
	}
	if e.M.Loads != loadsAfterInit {
		t.Fatal("merged baseline reconfigured at run time")
	}
	if a.Overhead >= sim.Millisecond {
		t.Fatalf("merged overhead %v should be tiny", a.Overhead)
	}
}

func TestMergedRejectsOversizedSet(t *testing.T) {
	k := sim.New()
	opt := core.DefaultOptions()
	opt.Geometry = fabric.Geometry{Cols: 4, Rows: 8, TracksPerChannel: 12, PinsPerSide: 24}
	e := core.NewEngine(opt, nil)
	if err := e.AddCircuit(netlist.Adder(8)); err != nil {
		t.Fatal(err)
	}
	if err := e.AddCircuit(netlist.Multiplier(4)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := NewMerged(k, e, compiled(e, "adder8", "mul4"), nil); err == nil {
		t.Fatal("merged set larger than device accepted")
	}
}

func TestMergedRejectsUnknownCircuit(t *testing.T) {
	k := sim.New()
	e := testEngine(t)
	m, _, err := NewMerged(k, e, compiled(e, "adder8"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Register(nil, "parity16"); err == nil {
		t.Fatal("unmerged circuit registered")
	}
}

func TestSoftwareSlowdown(t *testing.T) {
	k := sim.New()
	e := testEngine(t)
	s := NewSoftware(e, 20, nil)
	os := hostos.New(k, hostos.Config{Policy: hostos.FIFO}, s, nil)
	a, _ := os.Spawn("a", 0, []hostos.Op{fpgaOp("adder8", 1000)})
	k.Run()
	hwTime := sim.Time(1000) * e.Lib["adder8"].ClockPeriod
	if a.HWTime != 20*hwTime {
		t.Fatalf("software time %v, want %v", a.HWTime, 20*hwTime)
	}
	if e.M.Loads != 0 {
		t.Fatal("software baseline loaded a bitstream")
	}
}

func TestSoftwareDefaultSlowdown(t *testing.T) {
	if NewSoftware(testEngine(t), 0, nil).Slowdown != 20 {
		t.Fatal("default slowdown not applied")
	}
}

func TestSoftwarePreemptionLossless(t *testing.T) {
	k := sim.New()
	e := testEngine(t)
	s := NewSoftware(e, 10, nil)
	os := hostos.New(k, hostos.Config{Policy: hostos.RR, TimeSlice: sim.Millisecond}, s, nil)
	hw, _ := os.Spawn("hw", 0, []hostos.Op{fpgaOp("adder8", 40_000)})
	os.Spawn("cpu", 0, []hostos.Op{hostos.Compute(3 * sim.Millisecond)})
	k.Run()
	want := sim.Time(40_000) * e.Lib["adder8"].ClockPeriod * 10
	if hw.HWTime != want {
		t.Fatalf("software HW time %v, want %v", hw.HWTime, want)
	}
}

// TestNewManagerByName builds each of the nine managers the way the
// daemon and vfpgasim do, on the engine count Engines gives a board of
// two sub-boards, and runs a two-task job on it; a name outside
// the nine, or a set-dependent manager with no circuits, is an error that
// leaves no half-built manager behind.
func TestNewManagerByName(t *testing.T) {
	circuits := []string{"adder8", "parity16", "counter8"}
	for _, name := range managerNames {
		k := sim.New()
		engines := []*core.Engine{testEngine(t)}
		if name == "multi" {
			engines = append(engines, testEngine(t))
		}
		if got := Engines(name, 2); got != len(engines) {
			t.Errorf("%s: a board of two sub-boards takes %d engines, want %d", name, got, len(engines))
		}
		mgr, initCost, err := NewManager(name)(k, engines, compiled(engines[0], circuits...), nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if preloads := name == "overlay" || name == "merged"; (initCost > 0) != preloads {
			t.Errorf("%s: init download %v", name, initCost)
		}
		os := hostos.New(k, hostos.Config{Policy: hostos.RR, TimeSlice: sim.Millisecond}, mgr, nil)
		for _, task := range []string{"a", "b"} {
			if _, err := os.Spawn(task, 0, []hostos.Op{fpgaOp("adder8", 5000), fpgaOp("parity16", 5000)}); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
		k.Run()
		if !os.AllDone() {
			t.Errorf("%s: job did not finish", name)
		}
	}
	e := testEngine(t)
	if mgr, _, err := NewManager("nosuch")(sim.New(), []*core.Engine{e}, compiled(e, circuits...), nil); err == nil || mgr != nil {
		t.Errorf("unknown manager: got %v, %v", mgr, err)
	}
	for _, name := range []string{"overlay", "merged"} {
		mgr, _, err := NewManager(name)(sim.New(), []*core.Engine{testEngine(t)}, nil, nil)
		if !errors.Is(err, workload.ErrNoCircuits) || mgr != nil {
			t.Errorf("%s with no circuits: got %v, %v", name, mgr, err)
		}
	}
	// A constructor that fails must not leak its typed nil pointer.
	wide := testEngine(t)
	wide.Opt.Geometry.Cols = 1
	if mgr, _, err := NewManager("merged")(sim.New(), []*core.Engine{wide}, compiled(wide, circuits...), nil); err == nil || mgr != nil {
		t.Errorf("merged on a one-column device: got %v, %v", mgr, err)
	}
}
