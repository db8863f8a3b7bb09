package core_test

// Conformance suite: every hostos.FPGA implementation — the five VFPGA
// managers and the three baselines — runs the same spawn/preempt/resume/
// complete script and must satisfy the shared contract:
//
//   - Preempt returns overhead ≥ 0 and 0 ≤ preserved ≤ done ≤ total
//     (progress is never invented; overhead is extra time charged on
//     top, not bounded by the op — a readback just before completion
//     legitimately costs more than the work left);
//   - every Metrics counter and time equals what the residency ledger's
//     event log says happened (the accounting is auditable);
//   - no time metric is negative;
//   - after every task exits, the device state passes the manager's Check.

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/baseline"
	"repro/internal/compile"
	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/fault"
	"repro/internal/hostos"
	"repro/internal/netlist"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/trace"
)

// confCircuits are the circuits the conformance script uses; small enough
// that even Merged fits them side by side on the test device. A test
// names each one pre plus its library name: pre is empty except where a
// relation renames them, and a prefix keeps their order as strings.
var confCircuits = []string{"adder8", "counter8", "mul4"}

// confEngine builds the test engine, renewing used (nil: a new engine
// over a new device), with the script's circuits compiled, each named pre
// plus its library name, and a device log attached. Every duration of
// its timing model (see scaledTiming) and the done-signal poll's
// interval and cost are multiplied by scale.
func confEngine(t testing.TB, used *core.Engine, pre string, scale sim.Time) (*core.Engine, *core.DeviceLog) {
	t.Helper()
	opt := core.DefaultOptions()
	opt.Timing = scaledTiming(scale)
	opt.PollInterval *= scale
	opt.PollCost *= scale
	opt.Geometry.Cols, opt.Geometry.Rows = 24, 8
	opt.Geometry.TracksPerChannel, opt.Geometry.PinsPerSide = 12, 24
	e := core.NewEngine(opt, used)
	for _, nl := range []func() *netlist.Netlist{
		func() *netlist.Netlist { return netlist.Adder(8) },
		func() *netlist.Netlist { return netlist.Counter(8) },
		func() *netlist.Netlist { return netlist.Multiplier(4) },
	} {
		c := nl()
		c.Name = pre + c.Name
		if err := e.AddCircuit(c); err != nil {
			t.Fatal(err)
		}
	}
	log := core.NewDeviceLog()
	e.Ledger().AttachLog(log)
	return e, log
}

// scaledTiming is the default timing model with every duration it holds
// multiplied by k — both overheads, the LUT and hop delays, the clock
// floor — and the serial rate divided by k, which k must divide: every
// transfer then takes exactly k times as long.
func scaledTiming(k sim.Time) fabric.Timing {
	tm := fabric.DefaultTiming()
	tm.FullOverhead *= k
	tm.PartialOverhead *= k
	tm.LUTDelay *= k
	tm.HopDelay *= k
	tm.MinClock *= k
	tm.SerialRateBits /= int64(k)
	return tm
}

// confBuild builds one hostos.FPGA implementation under test, returning
// the manager, every engine behind it (for metric/event auditing) and
// every attached device log. The engines are the used ones renewed, one
// each, over their devices, erased by the caller, and the manager is mgr
// renewed in place; nil builds new ones.
type confBuild func(t testing.TB, k *sim.Kernel, used []*core.Engine, mgr hostos.FPGA) (hostos.FPGA, []*core.Engine, []*core.DeviceLog)

type confImpl struct {
	name  string
	build confBuild
}

// usedEngine returns used[i], or nil when there is no used engine.
func usedEngine(used []*core.Engine, i int) *core.Engine {
	if used == nil {
		return nil
	}
	return used[i]
}

// renewed returns used as the manager type M to renew, or nil — a new
// one — when there is none.
func renewed[M hostos.FPGA](used hostos.FPGA) M {
	m, _ := used.(M)
	return m
}

// compiled returns e's compiled circuits of the given names, in order.
func compiled(e *core.Engine, names []string) []*compile.Circuit {
	out := make([]*compile.Circuit, len(names))
	for i, name := range names {
		out[i] = e.Lib[name]
	}
	return out
}

// oneEngine builds a single-engine implementation with mk over an engine
// as confEngine builds it.
func oneEngine(pre string, scale sim.Time, mk func(k *sim.Kernel, e *core.Engine, used hostos.FPGA) (hostos.FPGA, error)) confBuild {
	return func(t testing.TB, k *sim.Kernel, used []*core.Engine, mgr hostos.FPGA) (hostos.FPGA, []*core.Engine, []*core.DeviceLog) {
		e, log := confEngine(t, usedEngine(used, 0), pre, scale)
		mgr, err := mk(k, e, mgr)
		if err != nil {
			t.Fatal(err)
		}
		return mgr, []*core.Engine{e}, []*core.DeviceLog{log}
	}
}

// confImpls lists the implementations under test over the script's
// circuits named with prefix pre, on engines whose timing is scaled by
// scale.
func confImpls(pre string, scale sim.Time) []confImpl {
	named := make([]string, len(confCircuits))
	for i, c := range confCircuits {
		named[i] = pre + c
	}
	strips := core.PartitionConfig{Mode: core.VariablePartitions, Fit: core.BestFit, GC: true, Rotate: true}
	one := func(mk func(k *sim.Kernel, e *core.Engine, used hostos.FPGA) (hostos.FPGA, error)) confBuild {
		return oneEngine(pre, scale, mk)
	}
	return []confImpl{
		{"dynamic", one(func(k *sim.Kernel, e *core.Engine, used hostos.FPGA) (hostos.FPGA, error) {
			return core.NewDynamicLoader(k, e, renewed[*core.DynamicLoader](used)), nil
		})},
		{"overlay", one(func(k *sim.Kernel, e *core.Engine, used hostos.FPGA) (hostos.FPGA, error) {
			om, _, err := core.NewOverlayManager(k, e, compiled(e, named[:1]), renewed[*core.OverlayManager](used))
			return om, err
		})},
		{"paged", one(func(k *sim.Kernel, e *core.Engine, used hostos.FPGA) (hostos.FPGA, error) {
			return core.NewPagedLoader(k, e, core.PagedConfig{PageCells: 8, Policy: core.LRU}, renewed[*core.PagedLoader](used))
		})},
		{"partition", one(func(k *sim.Kernel, e *core.Engine, used hostos.FPGA) (hostos.FPGA, error) {
			return core.NewPartitionManager(k, e, strips, renewed[*core.PartitionManager](used))
		})},
		{"amorphous", one(func(k *sim.Kernel, e *core.Engine, used hostos.FPGA) (hostos.FPGA, error) {
			return core.NewAmorphousManager(k, e, renewed[*core.AmorphousManager](used)), nil
		})},
		{"multi", func(t testing.TB, k *sim.Kernel, used []*core.Engine, mgr hostos.FPGA) (hostos.FPGA, []*core.Engine, []*core.DeviceLog) {
			e0, l0 := confEngine(t, usedEngine(used, 0), pre, scale)
			e1, l1 := confEngine(t, usedEngine(used, 1), pre, scale)
			mm, err := core.NewMultiManager(k, []*core.Engine{e0, e1}, strips, renewed[*core.MultiManager](mgr))
			if err != nil {
				t.Fatal(err)
			}
			return mm, []*core.Engine{e0, e1}, []*core.DeviceLog{l0, l1}
		}},
		{"exclusive", one(func(k *sim.Kernel, e *core.Engine, used hostos.FPGA) (hostos.FPGA, error) {
			return baseline.NewExclusive(k, e, renewed[*baseline.Exclusive](used)), nil
		})},
		{"merged", one(func(k *sim.Kernel, e *core.Engine, used hostos.FPGA) (hostos.FPGA, error) {
			m, _, err := baseline.NewMerged(k, e, compiled(e, named), renewed[*baseline.Merged](used))
			return m, err
		})},
		{"software", one(func(k *sim.Kernel, e *core.Engine, used hostos.FPGA) (hostos.FPGA, error) {
			return baseline.NewSoftware(e, 20, renewed[*baseline.Software](used)), nil
		})},
	}
}

// checkedFPGA wraps the implementation under test and asserts the
// Preempt contract on every call the scheduler makes.
type checkedFPGA struct {
	hostos.FPGA
	t        *testing.T
	preempts int
}

// AttachOS passes hostos.New's attachment through to the wrapped manager.
func (c *checkedFPGA) AttachOS(os *hostos.OS) {
	if a, ok := c.FPGA.(hostos.Attacher); ok {
		a.AttachOS(os)
	}
}

func (c *checkedFPGA) Preempt(t *hostos.Task, done, total sim.Time) (sim.Time, sim.Time) {
	overhead, preserved := c.FPGA.Preempt(t, done, total)
	c.preempts++
	if overhead < 0 {
		c.t.Errorf("Preempt(%s, done=%v, total=%v): negative overhead %v", t.Name, done, total, overhead)
	}
	if preserved < 0 || preserved > done {
		c.t.Errorf("Preempt(%s, done=%v, total=%v): preserved %v outside [0, done]", t.Name, done, total, preserved)
	}
	// Note: overhead+preserved may legitimately exceed total. The OS
	// charges overhead on top of the op (readback near completion costs
	// more than the work left); the random-op conformance sweep reaches
	// such preemptions. Progress itself is bounded by done <= total.
	if done > total {
		c.t.Errorf("Preempt(%s, done=%v, total=%v): done exceeds total", t.Name, done, total)
	}
	return overhead, preserved
}

// confScript spawns the shared workload: combinational and sequential
// operations under a short round-robin slice, so SaveRestore paths,
// evictions and resumes all trigger.
func confScript(t testing.TB, os *hostos.OS) {
	spawn := func(name string, ops ...hostos.Op) {
		if _, err := os.Spawn(name, 0, ops); err != nil {
			t.Fatalf("spawn %s: %v", name, err)
		}
	}
	spawn("alpha",
		hostos.UseFPGA(&hostos.FPGARequest{Circuit: "adder8", Evaluations: 50_000}),
		hostos.Compute(200*sim.Microsecond),
		hostos.UseFPGA(&hostos.FPGARequest{Circuit: "counter8", Cycles: 50_000}),
	)
	spawn("beta",
		hostos.UseFPGA(&hostos.FPGARequest{Circuit: "counter8", Cycles: 80_000}),
		hostos.UseFPGA(&hostos.FPGARequest{Circuit: "mul4", Evaluations: 30_000}),
	)
	spawn("gamma",
		hostos.Compute(100*sim.Microsecond),
		hostos.UseFPGA(&hostos.FPGARequest{Circuit: "mul4", Evaluations: 60_000}),
	)
}

// auditLedger cross-checks every Metrics counter and time against the
// device log: the ledger is the only writer of both, so they must agree
// exactly.
func auditLedger(t *testing.T, e *core.Engine, log *core.DeviceLog) {
	t.Helper()
	var loads, pageLoads, evictions, readbacks, restores, rollbacks, relocations, blocks, gcruns int64
	var faults, retries int64
	var configTime, readbackTime, restoreTime, faultTime sim.Time
	for _, ev := range log.Events() {
		if ev.Cost < 0 {
			t.Errorf("event %v has negative cost", ev)
		}
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
		case core.OpFault:
			faults++
			faultTime += ev.Cost
			if ev.Note == "" {
				t.Errorf("fault event %v carries no kind note", ev)
			}
		case core.OpRetry:
			retries++
			faultTime += ev.Cost
		}
	}
	m := &e.M
	for _, c := range []struct {
		name string
		got  int64
		want int64
	}{
		{"Loads", m.Loads, loads},
		{"PageLoads", m.PageLoads, pageLoads},
		{"PageFaults", m.PageFaults, pageLoads},
		{"Evictions", m.Evictions, evictions},
		{"Readbacks", m.Readbacks, readbacks},
		{"Restores", m.Restores, restores},
		{"Rollbacks", m.Rollbacks, rollbacks},
		{"Relocations", m.Relocations, relocations},
		{"Blocks", m.Blocks, blocks},
		{"GCRuns", m.GCRuns, gcruns},
		{"FaultsInjected", m.FaultsInjected, faults},
		{"FaultRetries", m.FaultRetries, retries},
	} {
		if c.got != c.want {
			t.Errorf("Metrics.%s = %d, ledger events say %d", c.name, c.got, c.want)
		}
	}
	for _, c := range []struct {
		name string
		got  sim.Time
		want sim.Time
	}{
		{"ConfigTime", m.ConfigTime, configTime},
		{"ReadbackTime", m.ReadbackTime, readbackTime},
		{"RestoreTime", m.RestoreTime, restoreTime},
		{"FaultTime", m.FaultTime, faultTime},
	} {
		if c.got < 0 {
			t.Errorf("Metrics.%s = %v is negative", c.name, c.got)
		}
		if c.got != c.want {
			t.Errorf("Metrics.%s = %v, ledger events say %v", c.name, c.got, c.want)
		}
	}
	// Every injected fault is resolved exactly once: by a retry or by an
	// escalation. Recoveries are ops that survived at least one fault, so
	// they can never outnumber the retries that saved them.
	if got := m.FaultRetries + m.FaultEscalations; got != m.FaultsInjected {
		t.Errorf("FaultRetries(%d) + FaultEscalations(%d) = %d, want FaultsInjected = %d",
			m.FaultRetries, m.FaultEscalations, got, m.FaultsInjected)
	}
	if m.FaultRecoveries > m.FaultRetries {
		t.Errorf("FaultRecoveries = %d exceeds FaultRetries = %d",
			m.FaultRecoveries, m.FaultRetries)
	}
}

func TestConformance(t *testing.T) {
	for _, impl := range confImpls("", 1) {
		impl := impl
		for _, pol := range []core.StatePolicy{core.SaveRestore, core.Rollback} {
			pol := pol
			t.Run(fmt.Sprintf("%s/%s", impl.name, pol), func(t *testing.T) {
				k := sim.New()
				mgr, engines, logs := impl.build(t, k, nil, nil)
				for _, e := range engines {
					e.Opt.State = pol
				}
				checked := &checkedFPGA{FPGA: mgr, t: t}
				os := hostos.New(k, hostos.Config{
					Policy: hostos.RR, TimeSlice: 300 * sim.Microsecond,
					CtxSwitch: 10 * sim.Microsecond, Syscall: 2 * sim.Microsecond,
				}, checked, nil)
				confScript(t, os)
				k.Run()
				if !os.AllDone() {
					t.Fatal("script did not run to completion")
				}
				for _, task := range os.Tasks() {
					if task.Turnaround() < 0 || task.CPUTime < 0 || task.HWTime < 0 ||
						task.Overhead < 0 || task.ReadyWait < 0 || task.BlockWait < 0 {
						t.Errorf("task %s has a negative time metric: %+v", task.Name, task)
					}
				}
				for i, e := range engines {
					auditLedger(t, e, logs[i])
				}
				// Every task has exited (Remove ran): the column map and
				// the device state the ledger left behind must pass the
				// manager's check.
				if err := checkOf(t, impl.name, mgr).Check(); err != nil {
					t.Errorf("device state fails its check after all tasks exited: %v", err)
				}
			})
		}
	}
}

// confRun is what one run of the random-op script leaves behind.
type confRun struct {
	sched *hostos.EventLog
	devs  []*core.DeviceLog
	end   sim.Time // the makespan
	tasks []*hostos.Task
	snaps []core.MetricsSnapshot // every engine's final metrics
}

// timeline merges the run's scheduler and device events.
func (r confRun) timeline() []trace.TimelineEvent {
	return core.MergeTimeline(r.sched, r.devs...).Events
}

// confMode is how the host OS of a run schedules its tasks and detects
// that a hardware operation has completed.
type confMode struct {
	sched      hostos.Policy
	completion core.CompletionMode
}

// roundRobin is the conformance runs' default mode.
var roundRobin = confMode{hostos.RR, core.Apriori}

// namedRun runs the random-op script of one seed under impl, task i
// named by the format names and each circuit by pre plus its library
// name, with the OS's slice and costs and the script's times multiplied
// by scale (impl's engines carry their own timing), in mode.
func namedRun(t *testing.T, impl confImpl, seed uint64, plan *fault.Plan, names, pre string, scale sim.Time, mode confMode) confRun {
	t.Helper()
	k := sim.New()
	mgr, engines, logs := impl.build(t, k, nil, nil)
	for _, e := range engines {
		e.Opt.Completion = mode.completion
	}
	if plan != nil {
		for i, e := range engines {
			e.Ledger().InjectFaults(fault.NewInjector(plan.Derive(uint64(i))))
		}
	}
	src := rng.New(seed)
	slices := []sim.Time{200 * sim.Microsecond, 300 * sim.Microsecond, 500 * sim.Microsecond}
	os := hostos.New(k, hostos.Config{
		Policy: mode.sched, TimeSlice: scale * slices[src.Intn(len(slices))],
		CtxSwitch: scale * 10 * sim.Microsecond, Syscall: scale * 2 * sim.Microsecond,
	}, mgr, nil)
	events := hostos.NewEventLog()
	os.AttachTrace(events)
	randomScript(t, os, src, 0, names, pre, scale)
	k.Run()
	if !os.AllDone() {
		t.Fatal("random script did not run to completion")
	}
	snaps := make([]core.MetricsSnapshot, len(engines))
	for i, e := range engines {
		snaps[i] = e.M.Snapshot(k.Now())
	}
	return confRun{sched: events, devs: logs, end: os.Makespan(), tasks: os.Tasks(), snaps: snaps}
}

// checkRelabeled runs the random-op script under every manager, seeds 1
// to 3, clean and under the fault drizzle, once with tasks named t0, t1,
// ... over the library's circuit names, and once relabeled: tasks named by
// the format names, circuits by pre plus their library names. The merged
// timelines must match event for event once back maps the relabeled names
// back in Task and Detail, and the makespan and final metrics exactly.
func checkRelabeled(t *testing.T, names, pre string, back *strings.Replacer) {
	plan, err := fault.ParseSpec(drizzle)
	if err != nil {
		t.Fatal(err)
	}
	plain, relabeled := confImpls("", 1), confImpls(pre, 1)
	for i, impl := range plain {
		for seed := uint64(1); seed <= 3; seed++ {
			for _, faulted := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/seed=%d/faulted=%v", impl.name, seed, faulted), func(t *testing.T) {
					var p *fault.Plan
					if faulted {
						seedPlan := plan.Derive(seed)
						p = &seedPlan
					}
					ra := namedRun(t, impl, seed, p, "t%d", "", 1, roundRobin)
					rb := namedRun(t, relabeled[i], seed, p, names, pre, 1, roundRobin)
					a, b := ra.timeline(), rb.timeline()
					if len(a) == 0 || len(a) != len(b) {
						t.Fatalf("%d events as named, %d relabeled", len(a), len(b))
					}
					for k := range a {
						ev := b[k]
						ev.Task, ev.Detail = back.Replace(ev.Task), back.Replace(ev.Detail)
						if ev != a[k] {
							t.Fatalf("event %d: %+v as named, %+v relabeled", k, a[k], b[k])
						}
					}
					if ra.end != rb.end {
						t.Errorf("makespan %v as named, %v relabeled", ra.end, rb.end)
					}
					if !reflect.DeepEqual(ra.snaps, rb.snaps) {
						t.Errorf("final metrics differ:\n%+v as named\n%+v relabeled", ra.snaps, rb.snaps)
					}
				})
			}
		}
	}
}

// TestConformanceNamesAreLabels is the first metamorphic relation: a
// task's name is a label, not an input. Tasks named task-0, task-1, ...
// keep the order of t0, t1, ... as strings.
func TestConformanceNamesAreLabels(t *testing.T) {
	checkRelabeled(t, "task-%d", "", strings.NewReplacer("task-", "t"))
}

// TestConformanceCircuitsAreLabels is the second: a circuit's name is a
// label too. Each circuit is named c- plus its library name.
func TestConformanceCircuitsAreLabels(t *testing.T) {
	pairs := make([]string, 0, 2*len(confCircuits))
	for _, c := range confCircuits {
		pairs = append(pairs, "c-"+c, c)
	}
	checkRelabeled(t, "t%d", "c-", strings.NewReplacer(pairs...))
}

// TestConformanceTimeScale is the third: the unit of time is a label
// too. The random-op script runs under every manager, seeds 1 to 3,
// clean, once as is and once with every duration the model reads
// multiplied by k — the timing model's (scaledTiming), the done-signal
// poll's interval and cost, the OS's slice, context switch and syscall,
// the script's compute and arrival times.
// Every event time and cost, every task's times, every metric time and
// the makespan must scale by exactly k, and everything else be equal.
// It holds round-robin with a-priori completion, and with done-signal
// completion — whose polls' interval and cost scale with the rest — when
// the OS runs each operation to its end: a preempted operation keeps
// its work to the last whole step of its time over its step count
// (core.Boundary), truncated to the nanosecond, and under done-signal
// that time is no whole multiple of the count, so the truncation, not
// the model, would break the relation.
func TestConformanceTimeScale(t *testing.T) {
	const k = 5
	plain, scaled := confImpls("", 1), confImpls("", k)
	for i, impl := range plain {
		for seed := uint64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/seed=%d", impl.name, seed), func(t *testing.T) {
				for _, mode := range []confMode{roundRobin, {hostos.FIFO, core.DoneSignal}} {
					t.Run(mode.completion.String(), func(t *testing.T) {
						checkTimeScaled(t, namedRun(t, impl, seed, nil, "t%d", "", 1, mode),
							namedRun(t, scaled[i], seed, nil, "t%d", "", k, mode), k)
					})
				}
			})
		}
	}
}

// checkTimeScaled requires run b to be run a with every time multiplied
// by k and everything else equal.
func checkTimeScaled(t *testing.T, a, b confRun, k sim.Time) {
	t.Helper()
	as, bs := a.sched.Events(), b.sched.Events()
	if len(as) == 0 || len(as) != len(bs) {
		t.Fatalf("%d scheduler events as is, %d scaled", len(as), len(bs))
	}
	for j, ev := range as {
		if ev.At *= k; ev != bs[j] {
			t.Fatalf("scheduler event %d: %+v scaled, %+v in the scaled run", j, ev, bs[j])
		}
	}
	for d, log := range a.devs {
		ad, bd := log.Events(), b.devs[d].Events()
		if len(ad) != len(bd) {
			t.Fatalf("device %d: %d events as is, %d scaled", d, len(ad), len(bd))
		}
		for j, ev := range ad {
			if ev.At, ev.Cost = k*ev.At, k*ev.Cost; ev != bd[j] {
				t.Fatalf("device %d event %d: %+v scaled, %+v in the scaled run", d, j, ev, bd[j])
			}
		}
	}
	if k*a.end != b.end {
		t.Errorf("makespan %v as is, %v scaled", a.end, b.end)
	}
	for j, tk := range a.tasks {
		if at, bt := taskFields(tk, k), taskFields(b.tasks[j], 1); !reflect.DeepEqual(at, bt) {
			t.Errorf("task %d: %v scaled, %v in the scaled run", j, at, bt)
		}
	}
	for j, m := range a.snaps {
		m.ConfigTime, m.ReadbackTime, m.RestoreTime, m.FaultTime =
			k*m.ConfigTime, k*m.ReadbackTime, k*m.RestoreTime, k*m.FaultTime
		if m != b.snaps[j] {
			t.Errorf("engine %d metrics:\n%+v scaled\n%+v in the scaled run", j, m, b.snaps[j])
		}
	}
}

// taskFields lists a task's exported fields, every time multiplied by k.
func taskFields(tk *hostos.Task, k sim.Time) []any {
	return []any{tk.ID, tk.Name, tk.Priority, tk.Preemptions, tk.Acquires,
		k * tk.Created, k * tk.FirstRun, k * tk.Finished, k * tk.ReadyWait,
		k * tk.BlockWait, k * tk.CPUTime, k * tk.HWTime, k * tk.Overhead}
}
