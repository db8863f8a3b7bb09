package fleet

import (
	"testing"

	"repro/internal/sim"
)

// TestSimulateBoardsRunTheirOwnFIFO: one node × two boards, each running
// its own FIFO one job at a time; a job is placed at arrival by the
// daemon's rule — its board's queued work plus its estimate there, then
// the board's load, then the lower id — and a board's estimate of a class
// is the mean of the jobs of it the board completed, failed ones left
// out. The comments give each board's cost for the job.
func TestSimulateBoardsRunTheirOwnFIFO(t *testing.T) {
	jobs := []SimJob{
		0: {Arrival: 0, Class: 0, Duration: 40},               // 0|0, both idle: lowest id
		1: {Arrival: 0, Class: 0, Duration: 100},              // 0|0, fewer jobs on board 1
		2: {Arrival: 5, Class: 1, Duration: 10},               // 0|0, one job each: lowest id, queues behind job 0
		3: {Arrival: 6, Class: 0, Duration: 10},               // 0|0, fewer jobs on board 1
		4: {Arrival: 60, Class: 0, Duration: 5, Failed: true}, // 40|0: board 1 has no estimate yet
		5: {Arrival: 120, Class: 0, Duration: 20},             // 40|55: job 4's 5 ns is not in board 1's mean
		6: {Arrival: 121, Class: 1, Duration: 30},             // 40+10|0
		7: {Arrival: 122, Class: 1, Duration: 5},              // 40+10|0+0, one job each
		8: {Arrival: 122, Class: 0, Duration: 5},              // 40+40|0+0+55
	}
	for i := range jobs {
		jobs[i].Width = 4
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
		2: {40, 0},  // job 0's completion frees board 0
		3: {100, 1}, // job 1's
		4: {110, 1},
		5: {120, 0},
		6: {121, 1},
		7: {151, 1},
		8: {156, 1},
	}
	for i, w := range want {
		j := &jobs[i]
		if !j.Admitted || !j.Finished || j.Start != w.start || j.Board != w.board {
			t.Errorf("job %d: admitted=%v finished=%v start=%d board=%d, want start=%d board=%d",
				i, j.Admitted, j.Finished, j.Start, j.Board, w.start, w.board)
		}
	}
	if tot.Makespan != 161 || tot.Requeues != 0 {
		t.Errorf("totals %+v, want makespan 161 (job 8), no requeues", tot)
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
		"negative class":    {{Width: 1, Class: -1}},
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
