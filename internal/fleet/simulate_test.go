package fleet

import (
	"testing"

	"repro/internal/sim"
)

// The general shape the K-server closed form cannot express: rectangles
// of different widths on multi-column boards. One node × two 4-column
// boards; the comments give the free columns per board as the run goes.
func TestSimulateHeadOfLineAndBestFit(t *testing.T) {
	jobs := []SimJob{
		0: {Arrival: 0, Width: 4, Duration: 40},  // both boards empty: tie, lowest id -> board 0 [0|4]
		1: {Arrival: 0, Width: 3, Duration: 100}, // board 1 [0|1]
		2: {Arrival: 5, Width: 3, Duration: 10},  // fits nowhere: waits at the head
		3: {Arrival: 6, Width: 1, Duration: 10},  // fits board 1 now, but queues behind 2
		4: {Arrival: 60, Width: 1, Duration: 5},  // [4|1]: the tighter span is on board 1
		5: {Arrival: 70, Width: 4, Duration: 20}, // board 0 [0|1]
		6: {Arrival: 71, Width: 1, Duration: 30}, // board 1 [0|0]
		7: {Arrival: 72, Width: 1, Duration: 5},  // nothing free: waits at the head
		8: {Arrival: 73, Width: 3, Duration: 5},  // behind a narrower head
	}
	policy, err := NewPolicy("firstfit", 0)
	if err != nil {
		t.Fatal(err)
	}
	tot, err := Simulate(Shape{Nodes: 1, BoardsPerNode: 2, Cols: 4, FailNode: -1}, policy, jobs)
	if err != nil {
		t.Fatal(err)
	}
	want := []struct {
		start sim.Time
		board int32
	}{
		0: {0, 0},
		1: {0, 1},
		2: {40, 0}, // job 0's completion frees board 0
		3: {40, 0}, // head-of-line: not at 6; boards tie at one free column, lowest id
		4: {60, 1}, // best fit across boards beats the lower id
		5: {70, 0},
		6: {71, 1},
		7: {90, 0}, // job 5's completion
		8: {90, 0}, // starts only when the head does
	}
	for i, w := range want {
		j := &jobs[i]
		if !j.Admitted || !j.Finished || j.Start != w.start || j.slot != w.board {
			t.Errorf("job %d: admitted=%v finished=%v start=%d board=%d, want start=%d board=%d",
				i, j.Admitted, j.Finished, j.Start, j.slot, w.start, w.board)
		}
	}
	if tot.Makespan != 101 || tot.Requeues != 0 {
		t.Errorf("totals %+v, want makespan 101 (job 6), no requeues", tot)
	}
}

func TestSimulateRejectsMalformedStreams(t *testing.T) {
	policy, err := NewPolicy("firstfit", 0)
	if err != nil {
		t.Fatal(err)
	}
	shape := Shape{Nodes: 1, BoardsPerNode: 1, Cols: 4, FailNode: -1}
	bad := map[string][]SimJob{
		"unsorted":          {{Arrival: 5, Width: 1}, {Arrival: 4, Width: 1}},
		"negative arrival":  {{Arrival: -1, Width: 1}},
		"zero width":        {{Width: 0}},
		"wider than board":  {{Width: 5}},
		"negative duration": {{Width: 1, Duration: -1}},
	}
	for name, jobs := range bad {
		if _, err := Simulate(shape, policy, jobs); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	shape.Limits.Rate, shape.Limits.Burst, shape.Tenants = 1, 1, []string{"a"}
	if _, err := Simulate(shape, policy, []SimJob{{Width: 1, Tenant: 1}}); err == nil {
		t.Error("undeclared tenant under admission: accepted")
	}
	if _, err := Simulate(Shape{Nodes: 1, BoardsPerNode: 1, FailNode: -1}, policy, nil); err == nil {
		t.Error("zero-column shape: accepted")
	}
	if tot, err := Simulate(shape, policy, nil); err != nil || tot != (SimTotals{}) {
		t.Errorf("empty stream: %+v, %v; want zero totals", tot, err)
	}
}
