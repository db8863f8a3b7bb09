package core_test

// Warm-reset conformance: a board recycles its hardware — the devices,
// erased, and the kernel, reset — renews its engines and host OS in
// place and builds the managers anew. Every implementation built over
// what an earlier run dirtied must replay that run exactly: same
// makespan, metrics, device-log events and configuration-write count,
// and a device the verifier accepts.

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/hostos"
	"repro/internal/lint"
	"repro/internal/sim"
)

func TestConformanceWarmReset(t *testing.T) {
	for _, impl := range confImpls("", 1) {
		t.Run(impl.name, func(t *testing.T) {
			k := sim.New()
			var os *hostos.OS
			run := func(used []*core.Engine) (hostos.FPGA, sim.Time, []*core.Engine, []*core.DeviceLog) {
				mgr, engines, logs := impl.build(t, k, used)
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

			_, coldSpan, cold, coldLogs := run(nil)
			coldSnaps := make([]core.MetricsSnapshot, len(cold))
			coldWrites := make([]int64, len(cold))
			used := make([]*core.Engine, len(cold))
			for i, e := range cold {
				coldSnaps[i] = e.M.Snapshot(k.Now())
				coldWrites[i] = e.Dev.ConfigWrites()
				used[i] = e
			}

			// Paged and software never write configuration RAM: leave a
			// stray cell and a latched pin on every device, so each
			// implementation is rebuilt over hardware that was dirty.
			k.Reset()
			for _, e := range used {
				d := e.Dev
				g := d.Geometry()
				d.WriteCLB(g.Cols-1, g.Rows-1, fabric.CLBConfig{Used: true, UseFF: true, FFInit: true})
				d.WritePin(0, fabric.PinConfig{Mode: fabric.PinInput})
				d.SetPin(0, true)
				d.Erase()
			}
			mgr, warmSpan, warm, warmLogs := run(used)
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

			lt, ok := mgr.(core.LintTargeter)
			if !ok {
				t.Fatalf("%s does not implement core.LintTargeter", impl.name)
			}
			diags, err := lint.Run(lt.LintTargets(), lint.Options{MinSeverity: lint.Warning})
			if err != nil {
				t.Fatal(err)
			}
			if lint.HasErrors(diags) {
				t.Errorf("device not lint-clean after the rerun: %v", lint.Errors(diags))
			}
		})
	}
}
