package workload

import (
	"fmt"
	"testing"

	"repro/internal/hostos"
	"repro/internal/netlist"
	"repro/internal/sim"
)

func TestMultimediaShape(t *testing.T) {
	cfg := DefaultMultimedia()
	set := Multimedia(cfg)
	if len(set.Tasks) != cfg.Streams {
		t.Fatalf("tasks %d", len(set.Tasks))
	}
	if len(set.Circuits) == 0 {
		t.Fatal("no circuits")
	}
	for _, ts := range set.Tasks {
		if len(ts.Program) != 2*cfg.Frames {
			t.Fatalf("%s program %d ops, want %d", ts.Name, len(ts.Program), 2*cfg.Frames)
		}
	}
}

func TestMultimediaSwitchesCodecs(t *testing.T) {
	set := Multimedia(DefaultMultimedia())
	switched := false
	for _, ts := range set.Tasks {
		var last string
		for _, op := range ts.Program {
			if op.Kind != hostos.OpFPGA {
				continue
			}
			if last != "" && op.Req.Circuit != last {
				switched = true
			}
			last = op.Req.Circuit
		}
	}
	if !switched {
		t.Fatal("no codec switches generated")
	}
}

func TestTelecomArrivalsMonotonic(t *testing.T) {
	set := Telecom(DefaultTelecom())
	for i := 1; i < len(set.Tasks); i++ {
		if set.Tasks[i].Arrival < set.Tasks[i-1].Arrival {
			t.Fatal("arrivals not monotonic")
		}
	}
	if set.Tasks[len(set.Tasks)-1].Arrival == 0 {
		t.Fatal("no arrival spread")
	}
}

func TestTelecomUsesSequentialCircuits(t *testing.T) {
	set := Telecom(DefaultTelecom())
	for _, ts := range set.Tasks {
		for _, op := range ts.Program {
			if op.Kind == hostos.OpFPGA && op.Req.Cycles == 0 {
				t.Fatalf("%s has FPGA op without cycles", ts.Name)
			}
		}
	}
}

func TestDiagnosisPriorities(t *testing.T) {
	set := Diagnosis(DefaultDiagnosis())
	if set.Tasks[0].Name != "control" || set.Tasks[0].Priority != 0 {
		t.Fatal("control task malformed")
	}
	if len(set.Tasks) < 2 {
		t.Fatal("no diagnostic tasks")
	}
	for _, ts := range set.Tasks[1:] {
		if ts.Priority <= set.Tasks[0].Priority {
			t.Fatal("diagnostics should have lower priority")
		}
		if ts.Arrival == 0 {
			t.Fatal("diagnostics should arrive later")
		}
	}
}

func TestSyntheticDeterministic(t *testing.T) {
	cfg := SyntheticConfig{Tasks: 6, OpsPerTask: 5, EvalsPerOp: 100, SwitchProb: 0.5, Seed: 9}
	a := Synthetic(cfg)
	b := Synthetic(cfg)
	for i := range a.Tasks {
		if a.Tasks[i].Arrival != b.Tasks[i].Arrival || len(a.Tasks[i].Program) != len(b.Tasks[i].Program) {
			t.Fatal("not deterministic")
		}
		for j := range a.Tasks[i].Program {
			if request(a.Tasks[i].Program[j]).Circuit != request(b.Tasks[i].Program[j]).Circuit {
				t.Fatal("circuit choice not deterministic")
			}
		}
	}
}

func TestSyntheticSequentialOpsUseCycles(t *testing.T) {
	set := Synthetic(SyntheticConfig{Tasks: 8, OpsPerTask: 6, EvalsPerOp: 10, SwitchProb: 1, Seed: 4})
	byName := map[string]*netlist.Netlist{}
	for _, c := range set.Circuits {
		byName[c.Name] = c
	}
	for _, ts := range set.Tasks {
		for _, op := range ts.Program {
			if op.Kind != hostos.OpFPGA {
				continue
			}
			c := byName[op.Req.Circuit]
			if c.IsSequential() && op.Req.Cycles == 0 {
				t.Fatalf("sequential circuit %s driven with evaluations", c.Name)
			}
			if !c.IsSequential() && op.Req.Evaluations == 0 {
				t.Fatalf("combinational circuit %s driven with cycles", c.Name)
			}
		}
	}
}

func TestPagedReferencesValid(t *testing.T) {
	cfg := PagedConfig{Circuit: netlist.Adder(8), Refs: 50, Pages: 6, WorkSet: 2, Skew: 1.0, Evals: 10, Seed: 5}
	set := Paged(cfg)
	if len(set.Tasks) != 1 {
		t.Fatal("paged set should be one task")
	}
	// Every reference has a request, and a working set, of its own: the
	// string is not one working set repeated.
	workingSets := map[string]bool{}
	for _, op := range set.Tasks[0].Program {
		workingSets[fmt.Sprint(op.Req.Pages)] = true
	}
	if len(workingSets) < 2 {
		t.Fatalf("%d references touch %d working sets, want a string of them", cfg.Refs, len(workingSets))
	}
	for _, op := range set.Tasks[0].Program {
		if len(op.Req.Pages) == 0 || len(op.Req.Pages) > cfg.WorkSet {
			t.Fatalf("working set size %d", len(op.Req.Pages))
		}
		if cap(op.Req.Pages) != len(op.Req.Pages) {
			t.Fatal("working set has spare capacity: an append would run into the next reference's set")
		}
		seen := map[int]bool{}
		for _, p := range op.Req.Pages {
			if p < 0 || p >= cfg.Pages {
				t.Fatalf("page %d out of range", p)
			}
			if seen[p] {
				t.Fatal("duplicate page in working set")
			}
			seen[p] = true
		}
	}
}

func TestPagedSkewConcentrates(t *testing.T) {
	cfg := PagedConfig{Circuit: netlist.Adder(8), Refs: 400, Pages: 10, WorkSet: 1, Skew: 1.5, Evals: 1, Seed: 6}
	set := Paged(cfg)
	counts := map[int]int{}
	for _, op := range set.Tasks[0].Program {
		counts[op.Req.Pages[0]]++
	}
	maxCount := 0
	for _, c := range counts {
		if c > maxCount {
			maxCount = c
		}
	}
	if maxCount < 100 {
		t.Fatalf("zipf skew too flat: hottest page %d/400 refs", maxCount)
	}
}

func TestCircuitNames(t *testing.T) {
	set := Multimedia(DefaultMultimedia())
	var names []string
	for _, c := range set.Circuits {
		names = append(names, c.Name)
	}
	if len(names) != len(set.Circuits) {
		t.Fatal("name count mismatch")
	}
	for i, n := range names {
		if n != set.Circuits[i].Name {
			t.Fatal("name order mismatch")
		}
	}
}

func TestStorageShape(t *testing.T) {
	cfg := DefaultStorage()
	set := Storage(cfg)
	if len(set.Tasks) != cfg.Requests {
		t.Fatalf("tasks %d", len(set.Tasks))
	}
	writes, reads := 0, 0
	for _, ts := range set.Tasks {
		hw := 0
		for _, op := range ts.Program {
			if op.Kind == hostos.OpFPGA {
				hw++
			}
		}
		if hw >= 2 {
			writes++
		} else if hw >= 1 {
			reads++
		} else {
			t.Fatalf("%s has no hardware ops", ts.Name)
		}
	}
	if writes == 0 || reads == 0 {
		t.Fatalf("mix degenerate: %d writes, %d reads", writes, reads)
	}
}

func TestStorageDeterministic(t *testing.T) {
	a := Storage(DefaultStorage())
	b := Storage(DefaultStorage())
	for i := range a.Tasks {
		if a.Tasks[i].Arrival != b.Tasks[i].Arrival || len(a.Tasks[i].Program) != len(b.Tasks[i].Program) {
			t.Fatal("storage workload not deterministic")
		}
	}
}

// nullFPGA accepts every circuit and runs every hardware op at once: the
// OS's own cost, with no manager's in it.
type nullFPGA struct{}

func (nullFPGA) Register(*hostos.Task, string) error                           { return nil }
func (nullFPGA) Acquire(*hostos.Task) (sim.Time, bool)                         { return 0, true }
func (nullFPGA) ExecTime(*hostos.Task) sim.Time                                { return sim.Microsecond }
func (nullFPGA) Preemptable(*hostos.Task) bool                                 { return true }
func (nullFPGA) Preempt(_ *hostos.Task, done, _ sim.Time) (sim.Time, sim.Time) { return 0, done }
func (nullFPGA) Resume(*hostos.Task) sim.Time                                  { return 0 }
func (nullFPGA) Complete(*hostos.Task)                                         {}
func (nullFPGA) Remove(*hostos.Task)                                           {}

// Set.Spawn tells the OS its task count once, so spawning and running a
// set costs the OS the same few arrays whatever the count: the Task
// records, the task and ready tables and the arrival table are sized
// once, not grown task by task. The kernel's event arrays are grown
// beforehand; Reset keeps them.
func TestSpawnReservesOnce(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector defeats escape analysis")
	}
	k := sim.New()
	allocs := func(streams int) float64 {
		cfg := DefaultMultimedia()
		cfg.Streams = streams
		set := Multimedia(cfg)
		run := func() {
			k.Reset()
			o := hostos.New(k, hostos.DefaultConfig(), nullFPGA{}, nil)
			set.Spawn(o)
			k.Run()
			if !o.AllDone() {
				t.Fatal("the set did not finish")
			}
		}
		run()
		return testing.AllocsPerRun(20, run)
	}
	many := allocs(64)
	if one := allocs(1); many != one {
		t.Errorf("spawning and running 64 tasks allocates %v times, 1 task %v: want the same", many, one)
	}
}
