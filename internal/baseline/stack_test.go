package baseline

import (
	"reflect"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/fault"
	"repro/internal/hostos"
	"repro/internal/sim"
	"repro/internal/workload"
)

// stackFor assembles a stack for the scenario under the named manager,
// the way the daemon and vfpgasim do.
func stackFor(t *testing.T, scenario, manager string, engines int, plan *fault.Plan) (*Stack, *workload.Set) {
	t.Helper()
	return stackOn(t, nil, core.DefaultOptions(), scenario, NewManager(manager), engines, plan)
}

// stackOn assembles a stack for the scenario under mk and opt, handing
// NewStack used, the dead stack of an earlier run, or nil.
func stackOn(t *testing.T, used *Stack, opt core.Options, scenario string, mk ManagerFunc, engines int, plan *fault.Plan) (*Stack, *workload.Set) {
	t.Helper()
	spec, err := workload.BuiltinSpec(scenario)
	if err != nil {
		t.Fatal(err)
	}
	set, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	circs, err := core.CompileSet(nil, opt, set.Circuits)
	if err != nil {
		t.Fatal(err)
	}
	st, err := NewStack(opt, engines, hostos.DefaultConfig(), plan, set, circs, mk, used)
	if err != nil {
		t.Fatalf("%s: %v", scenario, err)
	}
	return st, set
}

// TestStackArmsBeforeManager pins the assembly order: the fault plan is
// armed before the manager is constructed, so an initialization
// download draws from the plan's stream like any later device operation,
// and engine i draws from the plan's i-th derived stream.
func TestStackArmsBeforeManager(t *testing.T) {
	plan, err := fault.ParseSpec("seed=3,retries=2,config-error@1")
	if err != nil {
		t.Fatal(err)
	}
	st, _ := stackFor(t, "multimedia", "overlay", 1, &plan)
	clean, _ := stackFor(t, "multimedia", "overlay", 1, nil)
	m := &st.Engines[0].M
	if m.FaultsInjected != 1 || m.FaultRetries != 1 {
		t.Errorf("overlay's init download saw %d faults, %d retries; the scripted first config error should hit it",
			m.FaultsInjected, m.FaultRetries)
	}
	if st.InitCost <= clean.InitCost {
		t.Errorf("init download cost %v with the fault, %v without: the retry is not in it", st.InitCost, clean.InitCost)
	}

	multi, _ := stackFor(t, "storage", "multi", 3, &plan)
	if len(multi.Engines) != 3 {
		t.Fatalf("multi stack has %d engines, want 3", len(multi.Engines))
	}
	for i, e := range multi.Engines {
		if got := e.Ledger().Injector(); got == nil || !reflect.DeepEqual(got.Plan(), plan.Derive(uint64(i))) {
			t.Errorf("engine %d is not armed with the plan's stream %d", i, i)
		}
	}
	if one, _ := stackFor(t, "multimedia", "dynamic", 0, nil); len(one.Engines) != 1 {
		t.Errorf("an engine count of 0 built %d engines, want 1", len(one.Engines))
	}
}

// outcome is what a traced run leaves behind, for comparison.
type outcome struct {
	makespan sim.Time
	metrics  []core.MetricsSnapshot
	timeline string
}

func tracedRun(t *testing.T, st *Stack, set *workload.Set) outcome {
	t.Helper()
	st.Trace()
	if err := st.Run(set); err != nil {
		t.Fatal(err)
	}
	diags, err := st.Lint()
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("device state after the run: %s", d)
	}
	o := outcome{makespan: st.OS.Makespan(), timeline: st.Timeline().String()}
	for _, e := range st.Engines {
		o.metrics = append(o.metrics, e.M.Snapshot(st.K.Now()))
	}
	return o
}

// TestStackResetMatchesFresh runs a second job on the stack NewStack
// renews over the first job's hardware and on a freshly assembled one:
// makespan, device counters and the merged timeline must be identical,
// whatever the first job left on the devices — under a set-independent
// manager, a two-engine one, one that downloads at initialization
// (overlay, whose second job keeps a different circuit resident) and
// each builder of an experiment's own configuration. The renewed stack
// renews the first job's manager in place; a stack renewed over a job
// run under another kind of manager builds a new one, with the same
// result.
func TestStackResetMatchesFresh(t *testing.T) {
	plan, err := fault.ParseSpec("seed=5,retries=4,config-error=0.2")
	if err != nil {
		t.Fatal(err)
	}
	opt := core.DefaultOptions()
	for _, c := range []struct {
		manager       string
		mk            ManagerFunc
		engines       int
		first, second string
	}{
		{"dynamic", NewManager("dynamic"), 1, "multimedia", "telecom"},
		{"multi", NewManager("multi"), 2, "storage", "multimedia"},
		{"overlay", NewManager("overlay"), 1, "diagnosis", "multimedia"},
		{"Partition(fixed 3x8)", Partition(core.PartitionConfig{Mode: core.FixedPartitions, FixedWidths: []int{8, 8, 8}, Rotate: true}), 1, "telecom", "multimedia"},
		{"Overlay(2)", Overlay(2), 1, "multimedia", "diagnosis"},
		{"Paged(8-CLB clock)", Paged(core.PagedConfig{PageCells: 8, Policy: core.Clock}), 1, "multimedia", "telecom"},
	} {
		used, firstSet := stackOn(t, nil, opt, c.first, c.mk, c.engines, &plan)
		tracedRun(t, used, firstSet)
		k, devs, mgr := used.K, devices(used), used.Mgr

		fresh, set := stackOn(t, nil, opt, c.second, c.mk, c.engines, &plan)
		next, _ := stackOn(t, used, opt, c.second, c.mk, c.engines, &plan)
		if next.K != k {
			t.Errorf("%s: the renewed stack did not keep the kernel", c.manager)
		}
		if !reflect.DeepEqual(devices(next), devs) {
			t.Errorf("%s: the renewed stack does not stand on the first job's devices", c.manager)
		}
		if next.Mgr != mgr {
			t.Errorf("%s: the renewed stack built a new manager, not the first job's renewed", c.manager)
		}
		got, want := tracedRun(t, next, set), tracedRun(t, fresh, set)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: %s on used hardware diverged from a fresh stack:\n--- used ---\n%+v\n--- fresh ---\n%+v",
				c.manager, c.second, got, want)
		}
		if got.timeline == "" {
			t.Errorf("%s: traced run recorded no timeline", c.manager)
		}

		other, otherSet := stackOn(t, nil, opt, c.first, NewManager("exclusive"), c.engines, &plan)
		tracedRun(t, other, otherSet)
		fromOther, _ := stackOn(t, other, opt, c.second, c.mk, c.engines, &plan)
		if fromOther.K != other.K {
			t.Errorf("%s: the stack after an exclusive job was not renewed", c.manager)
		}
		if got := tracedRun(t, fromOther, set); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: %s after an exclusive job diverged from a fresh stack:\n--- after exclusive ---\n%+v\n--- fresh ---\n%+v",
				c.manager, c.second, got, want)
		}
	}
}

// devices returns the devices under a stack's engines, in order.
func devices(st *Stack) []*fabric.Device {
	var out []*fabric.Device
	for _, e := range st.Engines {
		out = append(out, e.Dev)
	}
	return out
}

// TestStackNotRenewedAcrossShapes hands NewStack a used stack of another
// device geometry or engine count: it must build on new hardware — no
// kernel, engine or device of the used stack in it — and the run must
// equal one on a freshly assembled stack, as when used is nil.
func TestStackNotRenewedAcrossShapes(t *testing.T) {
	narrow := core.DefaultOptions()
	narrow.Geometry.Cols = 20
	fewerPins := core.DefaultOptions()
	fewerPins.Geometry.PinsPerSide = 16
	for _, c := range []struct {
		name         string
		manager      string
		usedEngines  int
		engines      int
		opt          core.Options
		first, again string
	}{
		{"narrower device", "dynamic", 1, 1, narrow, "multimedia", "telecom"},
		{"fewer pins", "partition", 1, 1, fewerPins, "telecom", "multimedia"},
		{"more engines", "multi", 2, 3, core.DefaultOptions(), "storage", "multimedia"},
		{"fewer engines", "multi", 3, 2, core.DefaultOptions(), "storage", "multimedia"},
		{"one of several", "dynamic", 2, 1, core.DefaultOptions(), "storage", "telecom"},
	} {
		mk := NewManager(c.manager)
		used, firstSet := stackOn(t, nil, core.DefaultOptions(), c.first, mk, c.usedEngines, nil)
		tracedRun(t, used, firstSet)
		usedMgr, usedOS := used.Mgr, used.OS
		usedParts := append([]*fabric.Device{}, devices(used)...)
		usedEngines := append([]*core.Engine{}, used.Engines...)

		st, set := stackOn(t, used, c.opt, c.again, mk, c.engines, nil)
		fresh, _ := stackOn(t, nil, c.opt, c.again, mk, c.engines, nil)
		if st == used || st.K == used.K || st.Mgr == usedMgr || st.OS == usedOS {
			t.Errorf("%s: a used stack of another shape was renewed", c.name)
		}
		for i, e := range st.Engines {
			if slices.Contains(usedEngines, e) || slices.Contains(usedParts, e.Dev) {
				t.Errorf("%s: engine %d comes from the used stack", c.name, i)
			}
			if e.Dev.Geometry() != c.opt.Geometry {
				t.Errorf("%s: engine %d stands on a %v device, want %v", c.name, i, e.Dev.Geometry(), c.opt.Geometry)
			}
		}
		if len(st.Engines) != c.engines {
			t.Errorf("%s: %d engines, want %d", c.name, len(st.Engines), c.engines)
		}
		got, want := tracedRun(t, st, set), tracedRun(t, fresh, set)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: %s after a used stack of another shape diverged from a fresh stack:\n--- after used ---\n%+v\n--- fresh ---\n%+v",
				c.name, c.again, got, want)
		}
	}
}
