package core_test

// Pinned manager digests: every hostos.FPGA implementation runs the
// conformance suite's random-op script under both state policies, two
// schedulers, sparse and crowded task sets, several seeds, clean and under
// a recoverable fault drizzle, and the merged scheduler+device timeline
// plus each engine's final metrics must hash to the committed value. The
// golden-timeline tests are run-vs-run; this one is run-vs-history, so a
// rewrite of the managers that moves one event of one manager fails here.
// Beside each hash, every task's time is checked to add up to its
// turnaround. Regenerate with -update only when the model is meant to
// change.

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/hostos"
	"repro/internal/rng"
	"repro/internal/sim"
)

var update = flag.Bool("update", false, "rewrite golden files")

const managerDigestsPath = "testdata/manager_digests.json"

// managerDigest runs one cell of the matrix and hashes what it did.
func managerDigest(t *testing.T, impl confImpl, pol core.StatePolicy, sched hostos.Policy, crowd int, seed uint64, plan *fault.Plan) string {
	t.Helper()
	k := sim.New()
	mgr, engines, logs := impl.build(t, k, nil, nil)
	for i, e := range engines {
		e.Opt.State = pol
		if plan != nil {
			e.Ledger().InjectFaults(fault.NewInjector(plan.Derive(uint64(i))))
		}
	}
	src := rng.New(seed)
	slices := []sim.Time{200 * sim.Microsecond, 300 * sim.Microsecond, 500 * sim.Microsecond}
	osim := hostos.New(k, hostos.Config{
		Policy: sched, TimeSlice: slices[src.Intn(len(slices))],
		CtxSwitch: 10 * sim.Microsecond, Syscall: 2 * sim.Microsecond,
	}, mgr, nil)
	events := hostos.NewEventLog()
	osim.AttachTrace(events)
	randomScript(t, osim, src, crowd, "t%d", "", 1)
	k.Run()
	if !osim.AllDone() {
		t.Fatal("random script did not run to completion")
	}
	// Per-task conservation: a task's life is CPU, hardware, overhead,
	// ready wait and blocked wait, with nothing lost or counted twice.
	// Checked beside the hash, not hashed.
	for _, task := range osim.Tasks() {
		if sum := task.CPUTime + task.HWTime + task.Overhead + task.ReadyWait + task.BlockWait; sum != task.Turnaround() {
			t.Errorf("%s/%s/%s/crowd=%d/seed=%d/faulted=%v: task %s: cpu %v + hw %v + overhead %v + ready %v + blocked %v = %v, turnaround %v",
				impl.name, pol, sched, crowd, seed, plan != nil, task.Name,
				task.CPUTime, task.HWTime, task.Overhead, task.ReadyWait, task.BlockWait, sum, task.Turnaround())
		}
	}
	h := sha256.New()
	fmt.Fprintf(h, "makespan %d\n%s", osim.Makespan(), core.MergeTimeline(events, logs...))
	for _, e := range engines {
		snap, err := json.Marshal(e.M.Snapshot(k.Now()))
		if err != nil {
			t.Fatal(err)
		}
		h.Write(snap)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func computeManagerDigests(t *testing.T) map[string]string {
	t.Helper()
	drizzle, err := fault.ParseSpec("seed=77,retries=8,backoff=10us," +
		"config-error=0.1,config-timeout=0.05,readback-flip=0.1,restore-mismatch=0.1,pin-glitch=0.02")
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]string{}
	for _, impl := range confImpls("", 1) {
		for _, pol := range []core.StatePolicy{core.SaveRestore, core.Rollback} {
			for _, sched := range []hostos.Policy{hostos.RR, hostos.Priority} {
				for _, crowd := range []int{0, 4} {
					for seed := uint64(1); seed <= 4; seed++ {
						key := fmt.Sprintf("%s/%s/%s/crowd=%d/seed=%d", impl.name, pol, sched, crowd, seed)
						out[key+"/clean"] = managerDigest(t, impl, pol, sched, crowd, seed, nil)
						plan := drizzle.Derive(seed)
						out[key+"/faulted"] = managerDigest(t, impl, pol, sched, crowd, seed, &plan)
					}
				}
			}
		}
	}
	return out
}

// TestSilentFaultPlanIsNoPlan: a plan armed on every injection point at
// probability 0, with no script, draws from its streams but injects
// nothing, so every manager's timeline and metrics are byte-identical to
// a run with no plan at all — what keeps faults from moving any
// fault-free number.
func TestSilentFaultPlanIsNoPlan(t *testing.T) {
	silent, err := fault.ParseSpec("seed=5,retries=2,backoff=10us," +
		"config-error=0,config-timeout=0,readback-flip=0,restore-mismatch=0,pin-glitch=0")
	if err != nil {
		t.Fatal(err)
	}
	for _, impl := range confImpls("", 1) {
		for _, pol := range []core.StatePolicy{core.SaveRestore, core.Rollback} {
			for _, crowd := range []int{0, 4} {
				for seed := uint64(1); seed <= 2; seed++ {
					plan := silent.Derive(seed)
					none := managerDigest(t, impl, pol, hostos.RR, crowd, seed, nil)
					if armed := managerDigest(t, impl, pol, hostos.RR, crowd, seed, &plan); armed != none {
						t.Errorf("%s/%s/crowd=%d/seed=%d: a silent plan moved the run", impl.name, pol, crowd, seed)
					}
				}
			}
		}
	}
}

func TestManagerDigestsPinned(t *testing.T) {
	got := computeManagerDigests(t)
	if *update {
		data, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(managerDigestsPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(managerDigestsPath)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]string
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("digests cover %d runs, want %d", len(got), len(want))
	}
	keys := make([]string, 0, len(want))
	for key := range want {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	for _, key := range keys {
		if got[key] != want[key] {
			t.Errorf("%s: timeline or metrics diverged from the pinned run", key)
		}
	}
}
