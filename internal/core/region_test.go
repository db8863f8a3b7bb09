package core

import (
	"testing"
)

func spanLayout(t *testing.T, rm *RegionMap, want [][3]int) {
	t.Helper()
	spans := rm.Spans()
	if len(spans) != len(want) {
		t.Fatalf("span count = %d, want %d (%v)", len(spans), len(want), spans)
	}
	for i, s := range spans {
		free := 0
		if s.Free() {
			free = 1
		}
		if s.X != want[i][0] || s.W != want[i][1] || free != want[i][2] {
			t.Fatalf("span %d = {x=%d w=%d free=%v}, want {x=%d w=%d free=%d}",
				i, s.X, s.W, s.Free(), want[i][0], want[i][1], want[i][2])
		}
	}
}

func TestRegionMapAllocReleaseCoalesce(t *testing.T) {
	rm := NewRegionMap(20)
	a := rm.Alloc(rm.FindFree(5, FirstFit), 5, "a")
	b := rm.Alloc(rm.FindFree(5, FirstFit), 5, "b")
	c := rm.Alloc(rm.FindFree(5, FirstFit), 5, "c")
	spanLayout(t, rm, [][3]int{{0, 5, 0}, {5, 5, 0}, {10, 5, 0}, {15, 5, 1}})

	rm.Release(b) // hole between a and c
	spanLayout(t, rm, [][3]int{{0, 5, 0}, {5, 5, 1}, {10, 5, 0}, {15, 5, 1}})
	if f := rm.Frag(); f.FreeCols != 10 || f.LargestFree != 5 || f.FreeSpans != 2 {
		t.Fatalf("frag = %+v", f)
	}

	rm.Release(c) // c's span merges with both neighbors
	spanLayout(t, rm, [][3]int{{0, 5, 0}, {5, 15, 1}})
	if f := rm.Frag(); f.FreeCols != 15 || f.LargestFree != 15 || f.FreeSpans != 1 {
		t.Fatalf("frag = %+v", f)
	}
	rm.Release(a)
	spanLayout(t, rm, [][3]int{{0, 20, 1}})
}

func TestRegionMapFitPolicies(t *testing.T) {
	// Layout: holes of width 4 (x=0) and 6 (x=8), tail hole of 3 (x=17).
	rm := NewRegionMap(20)
	h1 := rm.Alloc(rm.FindFree(4, FirstFit), 4, "h1")
	rm.Alloc(rm.FindFree(4, FirstFit), 4, "keep1")
	h2 := rm.Alloc(rm.FindFree(6, FirstFit), 6, "h2")
	rm.Alloc(rm.FindFree(3, FirstFit), 3, "keep2")
	rm.Release(h1)
	rm.Release(h2)

	if s := rm.FindFree(3, FirstFit); s == nil || s.X != 0 {
		t.Fatalf("first-fit(3) = %+v, want hole at 0", s)
	}
	// Best fit prefers the tail hole of exactly 3.
	if s := rm.FindFree(3, BestFit); s == nil || s.X != 17 {
		t.Fatalf("best-fit(3) = %+v, want hole at 17", s)
	}
	if s := rm.FindFree(5, BestFit); s == nil || s.X != 8 {
		t.Fatalf("best-fit(5) = %+v, want hole at 8", s)
	}
	if s := rm.FindFree(7, BestFit); s != nil {
		t.Fatalf("best-fit(7) = %+v, want nil", s)
	}
}

func TestRegionMapMoveKeepsIdentity(t *testing.T) {
	rm := NewRegionMap(20)
	a := rm.Alloc(rm.FindFree(4, FirstFit), 4, "a")
	b := rm.Alloc(rm.FindFree(4, FirstFit), 4, "b")
	rm.Release(a)
	// Slide b left into a's hole; the move overlaps b's own old extent.
	rm.Move(b, 0)
	if b.X != 0 || b.W != 4 || b.Owner != "b" {
		t.Fatalf("b after move = %+v", b)
	}
	spanLayout(t, rm, [][3]int{{0, 4, 0}, {4, 16, 1}})

	// Move right into the middle of a free span: splits it.
	rm.Move(b, 10)
	spanLayout(t, rm, [][3]int{{0, 10, 1}, {10, 4, 0}, {14, 6, 1}})
	if b.X != 10 {
		t.Fatalf("b.X = %d", b.X)
	}
}

func TestRegionMapMovePanics(t *testing.T) {
	rm := NewRegionMap(10)
	a := rm.Alloc(rm.FindFree(4, FirstFit), 4, "a")
	b := rm.Alloc(rm.FindFree(4, FirstFit), 4, "b")
	func() {
		defer func() {
			if recover() == nil {
				t.Error("move onto an occupied span did not panic")
			}
		}()
		rm.Move(a, 2) // would land on b's columns
	}()
	_ = b
}

func TestFixedRegionMap(t *testing.T) {
	rm, err := NewFixedRegionMap([]int{4, 6, 4}, 16)
	if err != nil {
		t.Fatal(err)
	}
	if rm.MaxSlotWidth() != 6 {
		t.Fatalf("max slot = %d", rm.MaxSlotWidth())
	}
	// Exact-slot claim even when the request is narrower.
	s := rm.FindFree(3, BestFit)
	got := rm.Alloc(s, 3, "a")
	if got.W != 4 {
		t.Fatalf("fixed alloc carved the slot: w=%d", got.W)
	}
	rm.Release(got)
	// Free fixed slots never merge.
	spanLayout(t, rm, [][3]int{{0, 4, 1}, {4, 6, 1}, {10, 4, 1}})
	if f := rm.Frag(); f.FreeSpans != 3 || f.LargestFree != 6 {
		t.Fatalf("frag = %+v", f)
	}

	if _, err := NewFixedRegionMap([]int{9, 9}, 16); err == nil {
		t.Fatal("oversized widths accepted")
	}
	if _, err := NewFixedRegionMap(nil, 16); err == nil {
		t.Fatal("empty widths accepted")
	}
}

func TestFragStatsRatio(t *testing.T) {
	f := FragStats{}
	if f.Ratio() != 0 {
		t.Fatalf("empty ratio = %v", f.Ratio())
	}
	f = FragStats{FreeCols: 10, LargestFree: 10}
	if f.Ratio() != 0 {
		t.Fatalf("contiguous ratio = %v", f.Ratio())
	}
	f = FragStats{FreeCols: 10, LargestFree: 5}
	if f.Ratio() != 0.5 {
		t.Fatalf("ratio = %v, want 0.5", f.Ratio())
	}
}

func TestFragHistBuckets(t *testing.T) {
	for _, c := range []struct{ w, bucket int }{
		{1, 0}, {2, 1}, {3, 1}, {4, 2}, {7, 2}, {8, 3}, {127, 6}, {128, 7}, {100000, 7},
	} {
		if got := histBucket(c.w); got != c.bucket {
			t.Errorf("histBucket(%d) = %d, want %d", c.w, got, c.bucket)
		}
	}
}
