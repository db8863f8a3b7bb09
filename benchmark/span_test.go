package main

import "testing"

func TestSelfTimeIsDurationMinusChildCover(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "b", Start: 20, End: 50},  // overlaps a: 10..50 covered once
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 130}, // runs past the parent: clipped to 90..100
		{ID: 5, Parent: 3, Name: "b.child", Start: 25, End: 45},
		{ID: 6, Name: "lone", Start: 5, End: 8},
	}
	self := selfTimes(spans)
	want := map[int64]int64{
		1: 100 - 40 - 10, // 10..50 and 90..100
		2: 20,
		3: 30 - 20,
		4: 40,
		5: 20,
		6: 3,
	}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], w)
		}
	}
}

func TestNilTracerIsTheUntracedPass(t *testing.T) {
	var tr *tracer
	sp := tr.start("x", 0, tr.newID())
	tr.end(sp)
	if tr.count() != 0 || tr.summary() != nil || tr.durations("x", 1) != nil {
		t.Error("a nil tracer recorded something")
	}
}

func TestTracerSummaryGroupsByName(t *testing.T) {
	tr := newTracer()
	root := tr.start("root", 0, 1)
	for i := 0; i < 3; i++ {
		tr.end(tr.start("leaf", root.id, 1))
	}
	tr.end(root)
	sum := tr.summary()
	if len(sum) != 2 || sum[0].Name != "leaf" || sum[0].Count != 3 || sum[1].Name != "root" || sum[1].Count != 1 {
		t.Fatalf("summary = %+v", sum)
	}
	if sum[1].SelfP50US > sum[1].P50US {
		t.Errorf("root self time %v exceeds its duration %v", sum[1].SelfP50US, sum[1].P50US)
	}
}
