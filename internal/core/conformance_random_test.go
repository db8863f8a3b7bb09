package core_test

// Property-based extension of the conformance suite: instead of the one
// hand-written script, seeded random op sequences run over every
// hostos.FPGA implementation and must uphold the same contract — the
// Metrics/event-log audit stays exact and the device ends lint-clean.
// A second sweep arms a probabilistic fault plan and requires the audit
// (fault events included) to stay exact through injected failures and
// recoveries. Everything is keyed by explicit seeds, so a failure
// reproduces with its seed in the test name.

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/hostos"
	"repro/internal/lint"
	"repro/internal/rng"
	"repro/internal/sim"
)

// randomScript spawns 2-4 tasks (plus crowd more) of 1-4 random ops each,
// with random arrivals, priorities and scheduler-visible durations drawn
// from src, task i named by the format names and each circuit by pre
// plus its library name; every arrival and compute time is multiplied by
// scale. From crowd = 4 up the strip managers run out of columns and
// pins, so suspension, rotation, compaction and pin multiplexing trigger.
func randomScript(t testing.TB, os *hostos.OS, src *rng.Source, crowd int, names, pre string, scale sim.Time) {
	t.Helper()
	tasks := 2 + crowd + src.Intn(3)
	for i := 0; i < tasks; i++ {
		var prog []hostos.Op
		ops := 1 + src.Intn(4)
		for o := 0; o < ops; o++ {
			if src.Float64() < 0.3 {
				prog = append(prog, hostos.Compute(sim.Time(1+src.Intn(400))*scale*sim.Microsecond))
				continue
			}
			name := confCircuits[src.Intn(len(confCircuits))]
			req := hostos.FPGARequest{Circuit: pre + name}
			if name == "counter8" {
				req.Cycles = int64(1+src.Intn(90)) * 1000
			} else {
				req.Evaluations = int64(1+src.Intn(90)) * 1000
			}
			prog = append(prog, hostos.UseFPGA(&req))
		}
		os.SpawnAt(sim.Time(src.Intn(2000))*scale*sim.Microsecond,
			fmt.Sprintf(names, i), src.Intn(3), prog)
	}
}

func runRandomConformance(t *testing.T, seed uint64, plan *fault.Plan) {
	t.Helper()
	for _, impl := range confImpls("", 1) {
		impl := impl
		t.Run(impl.name, func(t *testing.T) {
			k := sim.New()
			mgr, engines, logs := impl.build(t, k, nil, nil)
			if plan != nil {
				for i, e := range engines {
					e.Ledger().InjectFaults(fault.NewInjector(plan.Derive(uint64(i))))
				}
			}
			checked := &checkedFPGA{FPGA: mgr, t: t}
			slices := []sim.Time{200 * sim.Microsecond, 300 * sim.Microsecond, 500 * sim.Microsecond}
			src := rng.New(seed)
			os := hostos.New(k, hostos.Config{
				Policy: hostos.RR, TimeSlice: slices[src.Intn(len(slices))],
				CtxSwitch: 10 * sim.Microsecond, Syscall: 2 * sim.Microsecond,
			}, checked, nil)
			randomScript(t, os, src, 0, "t%d", "", 1)
			k.Run()
			if !os.AllDone() {
				t.Fatal("random script did not run to completion")
			}
			for i, e := range engines {
				auditLedger(t, e, logs[i])
			}
			lt, ok := mgr.(core.LintTargeter)
			if !ok {
				t.Fatalf("%s does not implement core.LintTargeter", impl.name)
			}
			diags, err := lint.Run(lt.LintTargets(), lint.Options{MinSeverity: lint.Warning})
			if err != nil {
				t.Fatal(err)
			}
			if lint.HasErrors(diags) {
				t.Errorf("device not lint-clean after random script: %v", lint.Errors(diags))
			}
		})
	}
}

func TestConformanceRandomOps(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runRandomConformance(t, seed, nil)
		})
	}
}

// drizzle is the recoverable fault plan of the faulted sweeps.
const drizzle = "seed=77,retries=8,backoff=10us," +
	"config-error=0.1,config-timeout=0.05,readback-flip=0.1,restore-mismatch=0.1,pin-glitch=0.02"

// TestConformanceRandomOpsFaulted repeats the sweep under a recoverable
// fault drizzle: retries are generous enough that escalation is
// effectively impossible, so every run completes and the audit must
// balance fault events against the fault counters exactly.
func TestConformanceRandomOpsFaulted(t *testing.T) {
	plan, err := fault.ParseSpec(drizzle)
	if err != nil {
		t.Fatal(err)
	}
	for seed := uint64(1); seed <= 2; seed++ {
		seedPlan := plan.Derive(seed)
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runRandomConformance(t, seed, &seedPlan)
		})
	}
}
