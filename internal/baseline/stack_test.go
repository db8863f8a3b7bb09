package baseline

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/hostos"
	"repro/internal/sim"
	"repro/internal/workload"
)

// stackFor assembles a stack for the scenario under the named manager,
// the way the daemon and vfpgasim do.
func stackFor(t *testing.T, scenario, manager string, engines int, plan *fault.Plan) (*Stack, *workload.Set) {
	t.Helper()
	spec, err := workload.BuiltinSpec(scenario)
	if err != nil {
		t.Fatal(err)
	}
	set, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	opt := core.DefaultOptions()
	circs, err := core.CompileSet(nil, opt, set.Circuits)
	if err != nil {
		t.Fatal(err)
	}
	st, err := NewStack(opt, engines, hostos.DefaultConfig(), plan, set, circs,
		NewManager(manager, set.CircuitNames()))
	if err != nil {
		t.Fatalf("%s/%s: %v", scenario, manager, err)
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
	if m.FaultsInjected.Value() != 1 || m.FaultRetries.Value() != 1 {
		t.Errorf("overlay's init download saw %d faults, %d retries; the scripted first config error should hit it",
			m.FaultsInjected.Value(), m.FaultRetries.Value())
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

// TestStackResetMatchesFresh runs a second job on the stack Next builds
// over the first job's hardware and on a freshly assembled one: makespan,
// device counters and the merged timeline must be identical, whatever the
// first job left on the devices — under a set-independent manager, a
// two-engine one, and one that downloads at initialization (overlay,
// whose second job keeps a different circuit resident).
func TestStackResetMatchesFresh(t *testing.T) {
	plan, err := fault.ParseSpec("seed=5,retries=4,config-error=0.2")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		manager       string
		engines       int
		first, second string
	}{
		{"dynamic", 1, "multimedia", "telecom"},
		{"multi", 2, "storage", "multimedia"},
		{"overlay", 1, "diagnosis", "multimedia"},
	} {
		used, firstSet := stackFor(t, c.first, c.manager, c.engines, &plan)
		tracedRun(t, used, firstSet)

		fresh, set := stackFor(t, c.second, c.manager, c.engines, &plan)
		circs, err := core.CompileSet(nil, core.DefaultOptions(), set.Circuits)
		if err != nil {
			t.Fatal(err)
		}
		next, err := used.Next(set, circs, NewManager(c.manager, set.CircuitNames()))
		if err != nil {
			t.Fatalf("%s: %v", c.manager, err)
		}
		if next.K != used.K {
			t.Errorf("%s: Next did not keep the kernel", c.manager)
		}
		for i, e := range next.Engines {
			if e.Dev != used.Engines[i].Dev {
				t.Errorf("%s: engine %d does not stand on the first job's device", c.manager, i)
			}
		}
		got, want := tracedRun(t, next, set), tracedRun(t, fresh, set)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: %s on used hardware diverged from a fresh stack:\n--- used ---\n%+v\n--- fresh ---\n%+v",
				c.manager, c.second, got, want)
		}
		if got.timeline == "" {
			t.Errorf("%s: traced run recorded no timeline", c.manager)
		}
	}
}
