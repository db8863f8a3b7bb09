package core_test

// Warm-reset conformance: a board recycles its hardware — the devices,
// erased, and the kernel, reset — and renews its engines, its manager and
// its host OS in place. Every implementation renewed over what an earlier
// run dirtied must replay that run exactly: same makespan, metrics,
// device-log events and configuration-write count, and a device the
// verifier accepts; and a manager renewed over a job stopped partway must
// run the next job as a new one does.

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/fault"
	"repro/internal/hostos"
	"repro/internal/lint"
	"repro/internal/rng"
	"repro/internal/sim"
)

// dirty leaves a stray cell and a latched pin on e's device, then erases
// it, as a board does between jobs: paged and software never write
// configuration RAM, so every implementation is renewed over hardware
// that was dirty.
func dirty(e *core.Engine) {
	d := e.Dev
	g := d.Geometry()
	d.WriteCLB(g.Cols-1, g.Rows-1, fabric.CLBConfig{Used: true, UseFF: true, FFInit: true})
	d.WritePin(0, fabric.PinConfig{Mode: fabric.PinInput})
	d.SetPin(0, true)
	d.Erase()
}

// lintVerdict is what the verifier says of the manager's device state.
func lintVerdict(t *testing.T, name string, mgr hostos.FPGA) []lint.Diagnostic {
	t.Helper()
	lt, ok := mgr.(core.LintTargeter)
	if !ok {
		t.Fatalf("%s does not implement core.LintTargeter", name)
	}
	diags, err := lint.Run(lt.LintTargets(), lint.Options{MinSeverity: lint.Warning})
	if err != nil {
		t.Fatal(err)
	}
	return diags
}

func TestConformanceWarmReset(t *testing.T) {
	for _, impl := range confImpls("", 1) {
		t.Run(impl.name, func(t *testing.T) {
			k := sim.New()
			var os *hostos.OS
			run := func(used []*core.Engine, usedMgr hostos.FPGA) (hostos.FPGA, sim.Time, []*core.Engine, []*core.DeviceLog) {
				mgr, engines, logs := impl.build(t, k, used, usedMgr)
				os = hostos.New(k, hostos.Config{
					Policy: hostos.RR, TimeSlice: 300 * sim.Microsecond,
					CtxSwitch: 10 * sim.Microsecond, Syscall: 2 * sim.Microsecond,
				}, mgr, os)
				confScript(t, os)
				k.Run()
				if !os.AllDone() {
					t.Fatal("script did not run to completion")
				}
				return mgr, os.Makespan(), engines, logs
			}

			coldMgr, coldSpan, cold, coldLogs := run(nil, nil)
			coldSnaps := make([]core.MetricsSnapshot, len(cold))
			coldWrites := make([]int64, len(cold))
			used := make([]*core.Engine, len(cold))
			for i, e := range cold {
				coldSnaps[i] = e.M.Snapshot(k.Now())
				coldWrites[i] = e.Dev.ConfigWrites()
				used[i] = e
			}

			k.Reset()
			for _, e := range used {
				dirty(e)
			}
			mgr, warmSpan, warm, warmLogs := run(used, coldMgr)
			if mgr != coldMgr {
				t.Fatal("the manager was not renewed in place")
			}
			if warmSpan != coldSpan {
				t.Errorf("makespan on used hardware %v != %v on new", warmSpan, coldSpan)
			}
			for i, e := range warm {
				if e != used[i] {
					t.Fatalf("engine %d was not renewed in place", i)
				}
				if snap := e.M.Snapshot(k.Now()); !reflect.DeepEqual(snap, coldSnaps[i]) {
					t.Errorf("engine %d: metrics on used hardware diverged:\nused: %+v\nnew:  %+v", i, snap, coldSnaps[i])
				}
				if !reflect.DeepEqual(warmLogs[i].Events(), coldLogs[i].Events()) {
					t.Errorf("engine %d: device log on used hardware diverged:\nused:\n%s\nnew:\n%s", i, warmLogs[i], coldLogs[i])
				}
				if got := e.Dev.ConfigWrites(); got != coldWrites[i] {
					t.Errorf("engine %d: %d configuration cells written on used hardware, %d on new", i, got, coldWrites[i])
				}
				auditLedger(t, e, warmLogs[i])
			}
			if diags := lintVerdict(t, impl.name, mgr); lint.HasErrors(diags) {
				t.Errorf("device not lint-clean after the rerun: %v", lint.Errors(diags))
			}
		})
	}
}

// renewalImpls are the configurations the renewal test adds to the
// conformance set: a paged loader whose victims are drawn at random from
// four frames, so its stream is drawn from in every job, and fixed
// partitions, whose column map is a table of slots.
func renewalImpls() []confImpl {
	return []confImpl{
		{"paged-random", oneEngine("", 1, func(k *sim.Kernel, e *core.Engine, used hostos.FPGA) (hostos.FPGA, error) {
			return core.NewPagedLoader(k, e, core.PagedConfig{PageCells: 8, Frames: 4, Policy: core.Random, Seed: 9},
				renewed[*core.PagedLoader](used))
		})},
		{"partition-fixed", oneEngine("", 1, func(k *sim.Kernel, e *core.Engine, used hostos.FPGA) (hostos.FPGA, error) {
			return core.NewPartitionManager(k, e, core.PartitionConfig{
				Mode: core.FixedPartitions, FixedWidths: []int{6, 6, 8}, Fit: core.FirstFit, Rotate: true,
			}, renewed[*core.PartitionManager](used))
		})},
	}
}

// confStack is what a run of the random-op script leaves to renew: the
// kernel, the manager, its engines and the host OS.
type confStack struct {
	k       *sim.Kernel
	mgr     hostos.FPGA
	engines []*core.Engine
	os      *hostos.OS
}

// stackRun builds impl over used (a zero confStack: all new, the kernel
// included) and runs the random-op script of seed, crowd more tasks,
// under plan (nil: clean) until the kernel's clock reaches until, or to
// the end when until is 0. A renewed stack's kernel is reset and its
// devices dirtied first. It returns the run and the stack it ran on.
func stackRun(t *testing.T, impl confImpl, used confStack, seed uint64, crowd int, plan *fault.Plan, until sim.Time) (confRun, confStack) {
	t.Helper()
	st := used
	if st.k == nil {
		st.k = sim.New()
	} else {
		st.k.Reset()
		for _, e := range st.engines {
			dirty(e)
		}
	}
	var logs []*core.DeviceLog
	st.mgr, st.engines, logs = impl.build(t, st.k, used.engines, used.mgr)
	if plan != nil {
		for i, e := range st.engines {
			e.Ledger().InjectFaults(fault.NewInjector(plan.Derive(uint64(i))))
		}
	}
	src := rng.New(seed)
	slices := []sim.Time{200 * sim.Microsecond, 300 * sim.Microsecond, 500 * sim.Microsecond}
	st.os = hostos.New(st.k, hostos.Config{
		Policy: hostos.RR, TimeSlice: slices[src.Intn(len(slices))],
		CtxSwitch: 10 * sim.Microsecond, Syscall: 2 * sim.Microsecond,
	}, st.mgr, used.os)
	events := hostos.NewEventLog()
	st.os.AttachTrace(events)
	randomScript(t, st.os, src, crowd, "t%d", "", 1)
	if until > 0 {
		st.k.RunUntil(until)
		if st.os.AllDone() {
			t.Fatalf("the script of seed %d ran to completion before %v: nothing is left mid-job", seed, until)
		}
	} else if st.k.Run(); !st.os.AllDone() {
		t.Fatal("random script did not run to completion")
	}
	snaps := make([]core.MetricsSnapshot, len(st.engines))
	for i, e := range st.engines {
		snaps[i] = e.M.Snapshot(st.k.Now())
	}
	return confRun{sched: events, devs: logs, end: st.os.Makespan(), tasks: st.os.Tasks(), snaps: snaps}, st
}

// TestRenewedManagerEqualsFresh renews every implementation, and the
// renewal set's extra configurations, over a job stopped partway — tasks
// registered, strips placed and cached, pages resident, state saved,
// tasks suspended, faults drawn — on hardware dirtied and erased, and
// runs the random-op script on the renewed stack and on a new one:
// seeds 1 to 3, with and without a crowd that makes the strip managers
// suspend, rotate and compact, clean and under the fault drizzle. The
// manager and its engines must be renewed in place, and the two runs
// must match event for event on the merged timeline, in makespan, in
// every engine's metrics and in the verifier's verdict.
func TestRenewedManagerEqualsFresh(t *testing.T) {
	drizzlePlan, err := fault.ParseSpec(drizzle)
	if err != nil {
		t.Fatal(err)
	}
	for _, impl := range append(confImpls("", 1), renewalImpls()...) {
		for seed := uint64(1); seed <= 3; seed++ {
			for _, crowd := range []int{0, 4} {
				for _, faulted := range []bool{false, true} {
					t.Run(fmt.Sprintf("%s/seed=%d/crowd=%d/faulted=%v", impl.name, seed, crowd, faulted), func(t *testing.T) {
						var plan *fault.Plan
						if faulted {
							p := drizzlePlan.Derive(seed)
							plan = &p
						}
						// The last job runs another seed's script with the
						// other crowd and is cut off mid-run.
						_, last := stackRun(t, impl, confStack{}, seed+10, 4-crowd, plan, 3*sim.Millisecond)
						warm, st := stackRun(t, impl, last, seed, crowd, plan, 0)
						fresh, freshSt := stackRun(t, impl, confStack{}, seed, crowd, plan, 0)
						if st.mgr != last.mgr || st.os != last.os {
							t.Fatal("the manager or the OS was not renewed in place")
						}
						for i, e := range st.engines {
							if e != last.engines[i] {
								t.Fatalf("engine %d was not renewed in place", i)
							}
						}
						a, b := warm.timeline(), fresh.timeline()
						if len(a) == 0 || len(a) != len(b) {
							t.Fatalf("%d timeline events renewed, %d new", len(a), len(b))
						}
						for j := range a {
							if a[j] != b[j] {
								t.Fatalf("event %d: %+v renewed, %+v new", j, a[j], b[j])
							}
						}
						if warm.end != fresh.end {
							t.Errorf("makespan %v renewed, %v new", warm.end, fresh.end)
						}
						if !reflect.DeepEqual(warm.snaps, fresh.snaps) {
							t.Errorf("final metrics differ:\n%+v renewed\n%+v new", warm.snaps, fresh.snaps)
						}
						if got, want := lintVerdict(t, impl.name, st.mgr), lintVerdict(t, impl.name, freshSt.mgr); !reflect.DeepEqual(got, want) {
							t.Errorf("verifier verdict differs:\n%v renewed\n%v new", got, want)
						}
					})
				}
			}
		}
	}
}
