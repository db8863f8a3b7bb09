package hostos

import (
	"strings"
	"testing"

	"repro/internal/sim"
)

func TestTraceRecordsLifecycle(t *testing.T) {
	m := newMock()
	o := newOS(Config{Policy: RR, TimeSlice: sim.Millisecond, CtxSwitch: 0}, m)
	log := NewEventLog()
	o.AttachTrace(log)
	o.Spawn("a", 0, []Op{Compute(3 * sim.Millisecond)})
	o.Spawn("b", 0, []Op{Compute(3 * sim.Millisecond)})
	o.K.Run()

	kinds := map[string][]EventKind{}
	for _, e := range log.Events() {
		kinds[e.Task] = append(kinds[e.Task], e.Kind)
	}
	for _, task := range []string{"a", "b"} {
		ks := kinds[task]
		if len(ks) < 3 {
			t.Fatalf("%s: only %d events", task, len(ks))
		}
		if ks[0] != EvSpawn {
			t.Fatalf("%s: first event %v", task, ks[0])
		}
		if ks[len(ks)-1] != EvDone {
			t.Fatalf("%s: last event %v", task, ks[len(ks)-1])
		}
		runs, readies := 0, 0
		for _, k := range ks {
			switch k {
			case EvRun:
				runs++
			case EvReady:
				readies++
			}
		}
		if runs < 2 || readies < 1 {
			t.Fatalf("%s: expected RR interleaving, got %v", task, ks)
		}
	}
}

func TestTraceBlockEvents(t *testing.T) {
	m := newMock()
	m.exclusive = true
	m.preemptable = false
	o := newOS(Config{Policy: RR, TimeSlice: sim.Millisecond, CtxSwitch: 0}, m)
	log := NewEventLog()
	o.AttachTrace(log)
	o.Spawn("holder", 0, []Op{
		UseFPGA(&FPGARequest{Circuit: "c", Evaluations: 5000}),
		Compute(3 * sim.Millisecond),
	})
	o.Spawn("waiter", 0, []Op{
		Compute(100 * sim.Microsecond),
		UseFPGA(&FPGARequest{Circuit: "c", Evaluations: 100}),
	})
	o.K.Run()
	sawBlock := false
	for _, e := range log.Events() {
		if e.Task == "waiter" && e.Kind == EvBlock {
			sawBlock = true
		}
	}
	if !sawBlock {
		t.Fatal("no block event recorded for the waiter")
	}
}

func TestGanttRender(t *testing.T) {
	m := newMock()
	o := newOS(Config{Policy: RR, TimeSlice: sim.Millisecond, CtxSwitch: 0}, m)
	log := NewEventLog()
	o.AttachTrace(log)
	o.Spawn("alpha", 0, []Op{Compute(2 * sim.Millisecond)})
	o.Spawn("beta", 0, []Op{Compute(2 * sim.Millisecond)})
	o.K.Run()

	g := log.Gantt(40, o.Makespan())
	if !strings.Contains(g, "alpha") || !strings.Contains(g, "beta") {
		t.Fatalf("tasks missing from gantt:\n%s", g)
	}
	if !strings.Contains(g, "#") {
		t.Fatalf("no running segments in gantt:\n%s", g)
	}
	// alpha and beta alternate: both rows contain ready time too.
	lines := strings.Split(strings.TrimRight(g, "\n"), "\n")
	if len(lines) != 3 { // header + 2 tasks
		t.Fatalf("gantt lines %d:\n%s", len(lines), g)
	}
	if !strings.Contains(lines[1], ".") && !strings.Contains(lines[2], ".") {
		t.Fatalf("no ready time visible:\n%s", g)
	}
}

func TestGanttEmpty(t *testing.T) {
	log := NewEventLog()
	if log.Gantt(40, 100) != "" {
		t.Fatal("empty log rendered a gantt")
	}
	if log.String() != "" {
		t.Fatal("empty log rendered events")
	}
}

func TestEventKindStrings(t *testing.T) {
	for k, want := range map[EventKind]string{
		EvSpawn: "spawn", EvRun: "run", EvReady: "ready", EvBlock: "block", EvDone: "done",
	} {
		if k.String() != want {
			t.Fatalf("kind %d = %q", int(k), k.String())
		}
	}
}
