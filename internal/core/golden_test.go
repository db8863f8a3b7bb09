package core_test

// Golden merged-timeline test: a fixed-seed run renders a byte-identical
// scheduler+device trace every time (same determinism bar the benchmark
// harness meets). The whole pipeline — compile, schedule, ledger — is
// rebuilt from scratch per run, so any map-iteration or ordering
// nondeterminism anywhere in the stack shows up as a diff here,
// especially under -race in make check.

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/hostos"
	"repro/internal/sim"
)

// goldenRun executes the fixed scenario and returns the rendered merged
// timeline.
func goldenRun(t *testing.T) string {
	t.Helper()
	k := sim.New()
	e, log := confEngine(t, nil, "", 1)
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
		t.Fatal("golden scenario did not complete")
	}
	return core.MergeTimeline(sched, log).String()
}

func TestGoldenTimelineDeterministic(t *testing.T) {
	first := goldenRun(t)
	if first == "" {
		t.Fatal("empty merged timeline")
	}
	// The trace must interleave both sources.
	if !strings.Contains(first, "sched") || !strings.Contains(first, "device") {
		t.Fatalf("timeline missing a source:\n%s", first)
	}
	for i := 0; i < 3; i++ {
		if again := goldenRun(t); again != first {
			t.Fatalf("run %d diverged from first run:\n--- first ---\n%s\n--- again ---\n%s", i+2, first, again)
		}
	}
}
