package core_test

// Golden faulted-timeline test: a fixed fault plan (seed + scripted
// schedule) over the golden scenario renders a byte-identical merged
// trace every run — injected faults, retries and recoveries included.
// This is the determinism bar the fault injector has to meet before a
// "-faults" reproduction report is worth anything.

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/hostos"
	"repro/internal/lint"
	"repro/internal/sim"
)

// goldenFaultPlan is the pinned campaign: scripted hits on the config,
// readback and restore points plus a low probabilistic drizzle, with two
// retries and a 50us doubling backoff. Every op recovers (the script
// never fires more than Retries times in a row), so the scenario still
// completes.
func goldenFaultPlan(t *testing.T) fault.Plan {
	t.Helper()
	plan, err := fault.ParseSpec("seed=1789,retries=2,backoff=50us," +
		"config-error=0.02,config-error@2,pin-glitch@5,readback-flip@1,restore-mismatch@2")
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

// goldenFaultRun executes the golden scenario under the pinned fault
// plan and returns the rendered merged timeline plus the engine for
// metric assertions.
func goldenFaultRun(t *testing.T) (string, *core.Engine) {
	t.Helper()
	k := sim.New()
	e, log := confEngine(t, nil, "", 1)
	e.Ledger().InjectFaults(fault.NewInjector(goldenFaultPlan(t)))
	d := core.NewDynamicLoader(k, e, nil)
	os := hostos.New(k, hostos.Config{
		Policy: hostos.RR, TimeSlice: 250 * sim.Microsecond,
		CtxSwitch: 10 * sim.Microsecond, Syscall: 2 * sim.Microsecond,
	}, d, nil)
	sched := hostos.NewEventLog()
	os.AttachTrace(sched)
	confScript(t, os)
	k.Run()
	if !os.AllDone() {
		t.Fatal("faulted golden scenario did not complete")
	}
	return core.MergeTimeline(sched, log).String(), e
}

func TestGoldenTimelineFaulted(t *testing.T) {
	first, e := goldenFaultRun(t)
	if first == "" {
		t.Fatal("empty merged timeline")
	}
	// The injected campaign must be visible on the timeline, typed.
	for _, want := range []string{"fault", "retry", "[config-error]", "[pin-glitch]", "[readback-flip bit ", "[restore-mismatch bit "} {
		if !strings.Contains(first, want) {
			t.Errorf("faulted timeline lacks %q:\n%s", want, first)
		}
	}
	if e.M.FaultsInjected < 4 {
		t.Errorf("FaultsInjected = %d, want >= 4 (scripted hits)", e.M.FaultsInjected)
	}
	if e.M.FaultEscalations != 0 {
		t.Errorf("FaultEscalations = %d, want 0 (plan is recoverable)", e.M.FaultEscalations)
	}
	if e.M.FaultRecoveries == 0 {
		t.Error("no recoveries recorded")
	}
	if e.M.FaultTime <= 0 {
		t.Errorf("FaultTime = %v, want > 0", e.M.FaultTime)
	}
	for i := 0; i < 3; i++ {
		again, _ := goldenFaultRun(t)
		if again != first {
			t.Fatalf("run %d diverged from first run:\n--- first ---\n%s\n--- again ---\n%s", i+2, first, again)
		}
	}
	// And the unfaulted golden run must be untouched by all of this: the
	// injector is opt-in, per ledger.
	if plain := goldenRun(t); strings.Contains(plain, "fault") {
		t.Fatal("fault events leaked into the injector-free golden run")
	}
}

// TestLoadEscalation drives the config point past its retry budget and
// requires the typed escalation error from TryLoad.
func TestLoadEscalation(t *testing.T) {
	plan, err := fault.ParseSpec("seed=3,retries=1,backoff=10us,config-error@1,config-error@2")
	if err != nil {
		t.Fatal(err)
	}
	e, log := confEngine(t, nil, "", 1)
	e.Ledger().InjectFaults(fault.NewInjector(plan))
	_, _, err = e.Ledger().TryLoad("task", e.Lib["adder8"], 0, false)
	if err == nil {
		t.Fatal("TryLoad succeeded through an exhausted retry budget")
	}
	esc, ok := fault.AsEscalation(err)
	if !ok {
		t.Fatalf("TryLoad error %v is not a typed escalation", err)
	}
	if esc.Kind != fault.ConfigError || esc.Op != "load" || esc.Attempts != 2 {
		t.Fatalf("escalation = %+v", esc)
	}
	var escErr *fault.EscalationError
	if !errors.As(err, &escErr) {
		t.Fatal("errors.As failed on the escalation")
	}
	if e.M.FaultEscalations != 1 || e.M.FaultRetries != 1 {
		t.Fatalf("escalations=%d retries=%d, want 1/1",
			e.M.FaultEscalations, e.M.FaultRetries)
	}
	if e.M.Loads != 0 {
		t.Fatalf("Loads = %d after escalated load", e.M.Loads)
	}
	// The region was wiped and the pins refunded: the device must be
	// reusable once injection is disarmed.
	e.Ledger().InjectFaults(nil)
	if _, _, err := e.Ledger().TryLoad("task", e.Lib["adder8"], 0, false); err != nil {
		t.Fatalf("reload after escalation: %v", err)
	}
	var faults int
	for _, ev := range log.Events() {
		if ev.Op == core.OpFault {
			faults++
			if !strings.Contains(ev.Note, "config-error") {
				t.Errorf("fault event note %q lacks the kind", ev.Note)
			}
		}
	}
	if faults != 2 {
		t.Fatalf("fault events = %d, want 2", faults)
	}
}

// TestReadbackEscalationPanics pins the escalation path of operations
// that cannot return errors: a typed panic the serve layer can recover.
func TestReadbackEscalationPanics(t *testing.T) {
	plan, err := fault.ParseSpec("seed=5,retries=0,readback-flip@1")
	if err != nil {
		t.Fatal(err)
	}
	e, _ := confEngine(t, nil, "", 1)
	led := e.Ledger()
	c := e.Lib["counter8"]
	if _, _, err := led.TryLoad("task", c, 0, false); err != nil {
		t.Fatal(err)
	}
	led.InjectFaults(fault.NewInjector(plan))
	defer func() {
		esc, ok := fault.AsEscalation(recover())
		if !ok {
			t.Fatal("readback escalation did not panic with a typed error")
		}
		if esc.Kind != fault.ReadbackFlip || esc.Op != "readback" {
			t.Fatalf("escalation = %+v", esc)
		}
	}()
	led.Readback("task", c, c.BS.Region(0, 0))
}

// TestFaultRecoveryCharged verifies that a recovered load costs more
// than a clean one — wasted download plus backoff — while the nominal
// accounting (Loads, ConfigTime) stays identical.
func TestFaultRecoveryCharged(t *testing.T) {
	clean, _ := confEngine(t, nil, "", 1)
	_, cleanCost, err := clean.Ledger().TryLoad("task", clean.Lib["adder8"], 0, false)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := fault.ParseSpec("seed=9,retries=2,backoff=30us,config-timeout@1")
	if err != nil {
		t.Fatal(err)
	}
	faulted, _ := confEngine(t, nil, "", 1)
	faulted.Ledger().InjectFaults(fault.NewInjector(plan))
	_, faultedCost, err := faulted.Ledger().TryLoad("task", faulted.Lib["adder8"], 0, false)
	if err != nil {
		t.Fatal(err)
	}
	wantExtra := 2*cleanCost + 30*sim.Microsecond // timeout charge + first backoff
	if faultedCost != cleanCost+wantExtra {
		t.Fatalf("faulted cost = %v, want clean %v + extra %v", faultedCost, cleanCost, wantExtra)
	}
	if faulted.M.ConfigTime != clean.M.ConfigTime {
		t.Fatalf("ConfigTime polluted by faults: %v vs %v", faulted.M.ConfigTime, clean.M.ConfigTime)
	}
	if faulted.M.FaultTime != wantExtra {
		t.Fatalf("FaultTime = %v, want %v", faulted.M.FaultTime, wantExtra)
	}
	if faulted.M.FaultRecoveries != 1 {
		t.Fatalf("FaultRecoveries = %d, want 1", faulted.M.FaultRecoveries)
	}
}

// TestRelocateEscalationDropsStrip drives the two garbage-collection
// policies that move strips for a manager — PartitionManager's compaction
// and AmorphousManager's boundary slide — into a relocation whose retry
// budget is gone. The manager cannot unwind the move, so the typed
// escalation panics; before it does, the ledger drops the destroyed (or
// corrupted) strip, so the books still balance and no pin is lost.
func TestRelocateEscalationDropsStrip(t *testing.T) {
	probe, _ := confEngine(t, nil, "", 1)
	wa, wc, wm := probe.Lib["adder8"].BS.W, probe.Lib["counter8"].BS.W, probe.Lib["mul4"].BS.W
	if wa >= wm {
		t.Fatalf("adder8 (%d cols) not narrower than mul4 (%d): test geometry assumption broken", wa, wm)
	}
	for _, m := range []struct {
		name  string
		build func(k *sim.Kernel, e *core.Engine) (hostos.FPGA, error)
	}{
		{"partition", func(k *sim.Kernel, e *core.Engine) (hostos.FPGA, error) {
			return core.NewPartitionManager(k, e, core.PartitionConfig{Mode: core.VariablePartitions, GC: true}, nil)
		}},
		{"amorphous", func(k *sim.Kernel, e *core.Engine) (hostos.FPGA, error) {
			return core.NewAmorphousManager(k, e, nil), nil
		}},
	} {
		for _, c := range []struct{ spec, op string }{
			{"seed=3,retries=0,config-error@1", "relocate"},
			{"seed=3,retries=0,restore-mismatch@1", "restore"},
		} {
			t.Run(m.name+"/"+c.op, func(t *testing.T) {
				// adder8 | counter8 | a tail one column short of mul4: once
				// adder8 leaves, mul4 fits only if counter8 moves left.
				opt := probe.Opt
				opt.Geometry.Cols = wa + wc + wm - 1
				e := core.NewEngine(opt, nil)
				for _, circuit := range confCircuits {
					e.Lib[circuit] = probe.Lib[circuit]
				}
				log := core.NewDeviceLog()
				e.Ledger().AttachLog(log)
				k := sim.New()
				mgr, err := m.build(k, e)
				if err != nil {
					t.Fatal(err)
				}
				os := hostos.New(k, hostos.Config{Policy: hostos.FIFO}, mgr, nil)
				task := func(name string, req hostos.FPGARequest) *hostos.Task {
					task, err := os.Spawn(name, 0, []hostos.Op{hostos.UseFPGA(&req)})
					if err != nil {
						t.Fatal(err)
					}
					return task
				}
				a := task("a", hostos.FPGARequest{Circuit: "adder8", Evaluations: 100})
				b := task("b", hostos.FPGARequest{Circuit: "counter8", Cycles: 100})
				for _, task := range []*hostos.Task{a, b} {
					if _, ok := mgr.Acquire(task); !ok {
						t.Fatalf("%s blocked", task.Name)
					}
				}
				mgr.Remove(a)
				plan, err := fault.ParseSpec(c.spec)
				if err != nil {
					t.Fatal(err)
				}
				e.Ledger().InjectFaults(fault.NewInjector(plan))

				d := task("d", hostos.FPGARequest{Circuit: "mul4", Evaluations: 100})
				func() {
					defer func() {
						esc, ok := fault.AsEscalation(recover())
						if !ok || esc.Op != c.op {
							t.Fatalf("escalation = %+v, want a typed panic with Op %q", esc, c.op)
						}
					}()
					mgr.Acquire(d)
				}()

				auditLedger(t, e, log)
				if len(e.Ledger().Residents()) != 0 || e.M.Evictions != 1 || e.M.FaultEscalations != 1 {
					t.Fatalf("residents = %+v, evictions = %d, escalations = %d: doomed strip not dropped",
						e.Ledger().Residents(), e.M.Evictions, e.M.FaultEscalations)
				}
				if got, want := e.FreePinCount(), opt.Geometry.NumPins(); got != want {
					t.Fatalf("%d pins free, want all %d back in the pool", got, want)
				}
				tgt := e.Ledger().LintTarget(m.name)
				diags := lint.RunTarget(&tgt, lint.Options{Passes: []string{"fabric-config"}})
				if lint.HasErrors(diags) {
					t.Fatalf("device not lint-clean after the drop: %v", lint.Errors(diags))
				}
			})
		}
	}
}
