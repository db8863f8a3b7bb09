package core_test

// Warm-reset conformance: CapturePristine + Ledger.ResetForJob (plus the
// manager's own ResetForJob hook) must return every implementation to a
// state where rerunning the same script reproduces the cold run exactly,
// the ledger/metrics audit still balances over the second run, and the
// snapshot-restore reset charges the device's configWrites like the
// full-device configuration write it models.

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/hostos"
	"repro/internal/lint"
	"repro/internal/sim"
)

// deltaSnapshot subtracts the pristine baseline from an end-of-run
// snapshot, so a run after a warm reset can be audited against a device
// log attached after that reset (construction-time ops are in the
// baseline, not in the log). Utilization is run-scoped, not a counter,
// and is left alone.
func deltaSnapshot(after, base core.MetricsSnapshot) core.MetricsSnapshot {
	d := after
	d.Loads -= base.Loads
	d.Evictions -= base.Evictions
	d.Readbacks -= base.Readbacks
	d.Restores -= base.Restores
	d.Rollbacks -= base.Rollbacks
	d.PageFaults -= base.PageFaults
	d.PageLoads -= base.PageLoads
	d.GCRuns -= base.GCRuns
	d.Relocations -= base.Relocations
	d.Blocks -= base.Blocks
	d.MuxedOps -= base.MuxedOps
	d.FaultsInjected -= base.FaultsInjected
	d.FaultRetries -= base.FaultRetries
	d.FaultRecoveries -= base.FaultRecoveries
	d.FaultEscalations -= base.FaultEscalations
	d.ConfigTime -= base.ConfigTime
	d.ReadbackTime -= base.ReadbackTime
	d.RestoreTime -= base.RestoreTime
	d.FaultTime -= base.FaultTime
	return d
}

// auditDelta cross-checks a run's metric deltas against the device log
// covering exactly that run.
func auditDelta(t *testing.T, d core.MetricsSnapshot, log *core.DeviceLog) {
	t.Helper()
	var loads, pageLoads, evictions, readbacks, restores, rollbacks, relocations, blocks, gcruns int64
	var configTime, readbackTime, restoreTime sim.Time
	for _, ev := range log.Events() {
		switch ev.Op {
		case core.OpLoad:
			if ev.Page >= 0 {
				pageLoads++
			} else {
				loads++
			}
			configTime += ev.Cost
		case core.OpEvict:
			if !ev.Voluntary {
				evictions++
			}
		case core.OpReadback:
			readbacks++
			readbackTime += ev.Cost
		case core.OpRestore:
			restores++
			restoreTime += ev.Cost
		case core.OpReset:
			restoreTime += ev.Cost
		case core.OpRollback:
			rollbacks++
		case core.OpRelocate:
			relocations++
			configTime += ev.Cost
		case core.OpBlock:
			blocks++
		case core.OpGC:
			gcruns++
		}
	}
	for _, c := range []struct {
		name string
		got  int64
		want int64
	}{
		{"Loads", d.Loads, loads},
		{"PageLoads", d.PageLoads, pageLoads},
		{"Evictions", d.Evictions, evictions},
		{"Readbacks", d.Readbacks, readbacks},
		{"Restores", d.Restores, restores},
		{"Rollbacks", d.Rollbacks, rollbacks},
		{"Relocations", d.Relocations, relocations},
		{"Blocks", d.Blocks, blocks},
		{"GCRuns", d.GCRuns, gcruns},
	} {
		if c.got != c.want {
			t.Errorf("warm-run Metrics.%s delta = %d, ledger events say %d", c.name, c.got, c.want)
		}
	}
	for _, c := range []struct {
		name string
		got  sim.Time
		want sim.Time
	}{
		{"ConfigTime", d.ConfigTime, configTime},
		{"ReadbackTime", d.ReadbackTime, readbackTime},
		{"RestoreTime", d.RestoreTime, restoreTime},
	} {
		if c.got != c.want {
			t.Errorf("warm-run Metrics.%s delta = %v, ledger events say %v", c.name, c.got, c.want)
		}
	}
}

func TestConformanceWarmReset(t *testing.T) {
	for _, impl := range confImpls() {
		impl := impl
		t.Run(impl.name, func(t *testing.T) {
			k := sim.New()
			mgr, engines, _ := impl.build(t, k)

			resetter, ok := mgr.(interface{ ResetForJob() })
			if !ok {
				t.Fatalf("%s does not implement ResetForJob", impl.name)
			}

			// Pristine capture, post-construction (overlay and merged have
			// already configured the device by now).
			type pristine struct {
				img  *core.PristineImage
				snap core.MetricsSnapshot
				cw   int64
			}
			baselines := make([]pristine, len(engines))
			for i, e := range engines {
				baselines[i] = pristine{
					img:  e.CapturePristine(),
					snap: e.M.Snapshot(k.Now()),
					cw:   e.Dev.ConfigWrites(),
				}
			}

			runScript := func() sim.Time {
				os := hostos.New(k, hostos.Config{
					Policy: hostos.RR, TimeSlice: 300 * sim.Microsecond,
					CtxSwitch: 10 * sim.Microsecond, Syscall: 2 * sim.Microsecond,
				}, mgr)
				confScript(t, os)
				k.Run()
				if !os.AllDone() {
					t.Fatal("script did not run to completion")
				}
				return os.Makespan()
			}

			// Cold run.
			coldSpan := runScript()
			coldSnaps := make([]core.MetricsSnapshot, len(engines))
			coldWrites := make([]int64, len(engines))
			for i, e := range engines {
				coldSnaps[i] = e.M.Snapshot(k.Now())
				coldWrites[i] = e.Dev.ConfigWrites() - baselines[i].cw
			}

			// Warm reset: kernel, per-engine ledger restore, manager hook.
			k.Reset()
			warmLogs := make([]*core.DeviceLog, len(engines))
			postReset := make([]int64, len(engines))
			for i, e := range engines {
				preReset := e.Dev.ConfigWrites()
				if err := e.Ledger().ResetForJob(baselines[i].img); err != nil {
					t.Fatalf("engine %d: ResetForJob: %v", i, err)
				}
				// The restore models a full-device configuration write:
				// every CLB cell is charged, exactly once.
				cells := int64(e.Opt.Geometry.Cols * e.Opt.Geometry.Rows)
				if got := e.Dev.ConfigWrites() - preReset; got != cells {
					t.Errorf("engine %d: reset charged %d config writes, want %d (full device)", i, got, cells)
				}
				warmLogs[i] = core.NewDeviceLog(0)
				e.Ledger().AttachLog(warmLogs[i])
				postReset[i] = e.Dev.ConfigWrites()
			}
			resetter.ResetForJob()

			// Warm run: must replay the cold run exactly.
			warmSpan := runScript()
			if warmSpan != coldSpan {
				t.Errorf("warm makespan %v != cold makespan %v", warmSpan, coldSpan)
			}
			for i, e := range engines {
				warmSnap := e.M.Snapshot(k.Now())
				if !reflect.DeepEqual(warmSnap, coldSnaps[i]) {
					t.Errorf("engine %d: warm metrics diverged from cold run:\nwarm: %+v\ncold: %+v", i, warmSnap, coldSnaps[i])
				}
				if got := e.Dev.ConfigWrites() - postReset[i]; got != coldWrites[i] {
					t.Errorf("engine %d: warm run wrote %d config cells, cold run wrote %d", i, got, coldWrites[i])
				}
				auditDelta(t, deltaSnapshot(warmSnap, baselines[i].snap), warmLogs[i])
			}

			// The restored, re-run device must still satisfy the verifier.
			lt, ok := mgr.(core.LintTargeter)
			if !ok {
				t.Fatalf("%s does not implement core.LintTargeter", impl.name)
			}
			diags, err := lint.Run(lt.LintTargets(), lint.Options{MinSeverity: lint.Warning})
			if err != nil {
				t.Fatal(err)
			}
			if lint.HasErrors(diags) {
				t.Errorf("device not lint-clean after warm rerun: %v", lint.Errors(diags))
			}
		})
	}
}
