package core

import (
	"fmt"
	"testing"

	"repro/internal/fabric"
	"repro/internal/hostos"
	"repro/internal/rng"
	"repro/internal/sim"
)

func spanLayout(t *testing.T, rm *RegionMap, want [][3]int) {
	t.Helper()
	spans := rm.spans
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
	rm := NewRegionMap(20, nil)
	a := rm.Alloc(rm.FindFree(5, FirstFit), 5, "a")
	b := rm.Alloc(rm.FindFree(5, FirstFit), 5, "b")
	c := rm.Alloc(rm.FindFree(5, FirstFit), 5, "c")
	spanLayout(t, rm, [][3]int{{0, 5, 0}, {5, 5, 0}, {10, 5, 0}, {15, 5, 1}})

	rm.Release(b) // hole between a and c
	spanLayout(t, rm, [][3]int{{0, 5, 0}, {5, 5, 1}, {10, 5, 0}, {15, 5, 1}})
	if f := rm.Frag(); f.FreeCols != 10 || f.LargestFree != 5 || len(rm.FreeList()) != 2 {
		t.Fatalf("frag = %+v, free spans %+v", f, rm.FreeList())
	}

	rm.Release(c) // c's span merges with both neighbors
	spanLayout(t, rm, [][3]int{{0, 5, 0}, {5, 15, 1}})
	if f := rm.Frag(); f.FreeCols != 15 || f.LargestFree != 15 || len(rm.FreeList()) != 1 {
		t.Fatalf("frag = %+v, free spans %+v", f, rm.FreeList())
	}
	rm.Release(a)
	spanLayout(t, rm, [][3]int{{0, 20, 1}})
}

func TestRegionMapFitPolicies(t *testing.T) {
	// Layout: holes of width 4 (x=0) and 6 (x=8), tail hole of 3 (x=17).
	rm := NewRegionMap(20, nil)
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
	rm := NewRegionMap(20, nil)
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
	rm := NewRegionMap(10, nil)
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
	rm, err := NewFixedRegionMap([]int{4, 6, 4}, 16, nil)
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
	if f := rm.Frag(); len(rm.FreeList()) != 3 || f.LargestFree != 6 {
		t.Fatalf("frag = %+v, free spans %+v", f, rm.FreeList())
	}

	if _, err := NewFixedRegionMap([]int{9, 9}, 16, nil); err == nil {
		t.Fatal("oversized widths accepted")
	}
	if _, err := NewFixedRegionMap(nil, 16, nil); err == nil {
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

// TestRegionMapSpanReuse runs random Alloc / Release / Move scripts on
// sliding maps and checks, after every step, that recycling the span
// objects coalescing retires changes nothing a caller can see: every
// occupied span the test holds keeps its pointer and its extent, no
// pointer appears twice in the table, no spare object is in it, the
// table tiles the device with its free space coalesced, and Frag equals
// a reference computed from a column bitmap. The map must also stop
// allocating: it never makes more span objects than a table can hold.
func TestRegionMapSpanReuse(t *testing.T) {
	type held struct {
		s     *Span
		x, w  int
		owner int
	}
	for seed := uint64(1); seed <= 60; seed++ {
		src := rng.New(seed)
		cols := 4 + src.Intn(40)
		rm := NewRegionMap(cols, nil)
		var live []held
		objects := map[*Span]bool{}
		check := func(step int, op string) {
			t.Helper()
			owner := make([]int, cols) // column bitmap: owner id + 1, 0 free
			for _, h := range live {
				if h.s.X != h.x || h.s.W != h.w || h.s.Owner != h.owner {
					t.Fatalf("seed %d step %d (%s): held span %d moved to {x=%d w=%d owner=%v}, want {x=%d w=%d}",
						seed, step, op, h.owner, h.s.X, h.s.W, h.s.Owner, h.x, h.w)
				}
				for c := h.x; c < h.x+h.w; c++ {
					owner[c] = h.owner + 1
				}
			}
			inTable := map[*Span]bool{}
			x, occupied := 0, 0
			for i, s := range rm.spans {
				objects[s] = true
				if inTable[s] {
					t.Fatalf("seed %d step %d (%s): span %p twice in the table", seed, step, op, s)
				}
				inTable[s] = true
				if s.X != x || s.W <= 0 {
					t.Fatalf("seed %d step %d (%s): span %d {x=%d w=%d} does not tile from %d", seed, step, op, i, s.X, s.W, x)
				}
				if s.Free() && i > 0 && rm.spans[i-1].Free() {
					t.Fatalf("seed %d step %d (%s): adjacent free spans at %d", seed, step, op, s.X)
				}
				if !s.Free() {
					occupied++
				}
				x += s.W
			}
			if x != cols {
				t.Fatalf("seed %d step %d (%s): table covers %d of %d columns", seed, step, op, x, cols)
			}
			if occupied != len(live) {
				t.Fatalf("seed %d step %d (%s): %d occupied spans, test holds %d", seed, step, op, occupied, len(live))
			}
			for _, h := range live {
				if !inTable[h.s] {
					t.Fatalf("seed %d step %d (%s): held span %d is not in the table", seed, step, op, h.owner)
				}
			}
			for _, s := range rm.spare {
				if inTable[s] {
					t.Fatalf("seed %d step %d (%s): spare span %p is in the table or listed twice", seed, step, op, s)
				}
				inTable[s] = true
				objects[s] = true
			}
			if len(objects) > cols+1 {
				t.Fatalf("seed %d step %d (%s): %d span objects for %d columns", seed, step, op, len(objects), cols)
			}
			var want FragStats
			want.Cols = cols
			for c := 0; c < cols; {
				if owner[c] != 0 {
					c++
					continue
				}
				run := 0
				for c < cols && owner[c] == 0 {
					run++
					c++
				}
				want.observe(run)
			}
			if got := rm.Frag(); got != want {
				t.Fatalf("seed %d step %d (%s): Frag = %+v, bitmap says %+v", seed, step, op, got, want)
			}
		}
		nextOwner := 0
		for step := 0; step < 400; step++ {
			switch op := src.Intn(10); {
			case op < 4 || len(live) == 0:
				need := 1 + src.Intn(cols/2)
				fit := FirstFit
				if src.Bool() {
					fit = BestFit
				}
				if f := rm.FindFree(need, fit); f != nil {
					s := rm.Alloc(f, need, nextOwner)
					live = append(live, held{s: s, x: s.X, w: need, owner: nextOwner})
					nextOwner++
				}
				check(step, "alloc")
			case op < 7:
				i := src.Intn(len(live))
				rm.Release(live[i].s)
				live = append(live[:i], live[i+1:]...)
				check(step, "release")
			default:
				i := src.Intn(len(live))
				h := &live[i]
				// Any origin whose columns are free or h's own.
				var targets []int
				for x := 0; x+h.w <= cols; x++ {
					ok := true
					for _, o := range live {
						if o.s != h.s && x < o.x+o.w && o.x < x+h.w {
							ok = false
							break
						}
					}
					if ok {
						targets = append(targets, x)
					}
				}
				h.x = targets[src.Intn(len(targets))]
				rm.Move(h.s, h.x)
				check(step, "move")
			}
		}
	}
}

// Once a map has carved and merged its spans a few times, alloc/release
// churn allocates nothing: every claim reuses a span an earlier release
// coalesced away.
func TestRegionMapChurnAllocatesNothing(t *testing.T) {
	rm := NewRegionMap(24, nil)
	var held [4]*Span
	round := func() {
		for i := range held {
			held[i] = rm.Alloc(rm.FindFree(3+i, BestFit), 3+i, i)
		}
		rm.Move(held[3], 18)
		for _, i := range []int{1, 3, 0, 2} {
			rm.Release(held[i])
		}
	}
	round()
	if n := testing.AllocsPerRun(100, round); n != 0 {
		t.Errorf("alloc/move/release churn allocates %v times per round, want 0", n)
	}
}

// TestRegionMapCheck builds broken maps by hand, one fault a row, and
// wants exactly the rule each breaks; the clean rows want none, and
// Check formats only errors, so it allocates nothing on them.
func TestRegionMapCheck(t *testing.T) {
	cached := &strip{circuit: "b"} // resident, owned by no task
	sliding := func(spans ...*Span) *RegionMap { return &RegionMap{cols: 12, spans: spans} }
	fixed := func(spans ...*Span) *RegionMap { return &RegionMap{cols: 10, fixed: true, spans: spans} }
	for _, c := range []struct {
		name string
		rm   *RegionMap
		want string
	}{
		{"sliding/clean with a cached strip",
			sliding(&Span{0, 4, "a"}, &Span{4, 3, cached}, &Span{7, 5, nil}), ""},
		{"sliding/overlap",
			sliding(&Span{0, 4, "a"}, &Span{3, 2, "b"}, &Span{5, 7, nil}),
			"span x=3 w=2: overlaps the previous span by 1 column(s)"},
		{"sliding/leaked gap",
			sliding(&Span{0, 4, "a"}, &Span{5, 7, nil}),
			"columns 4..4 leaked: not covered by any span"},
		{"sliding/uncovered tail",
			sliding(&Span{0, 4, "a"}),
			"columns 4..11 leaked: a sliding map must cover the device"},
		{"sliding/uncoalesced free neighbours",
			sliding(&Span{0, 4, "a"}, &Span{4, 3, nil}, &Span{7, 5, nil}),
			"span x=7 w=5: free neighbours not coalesced"},
		{"sliding/zero width",
			sliding(&Span{0, 4, "a"}, &Span{4, 0, nil}, &Span{4, 8, "b"}),
			"span x=4 w=0: non-positive width"},
		{"sliding/off the device",
			sliding(&Span{0, 4, "a"}, &Span{4, 9, nil}),
			"span x=4 w=9: outside the device's 12 columns"},
		{"sliding/out of origin order",
			sliding(&Span{0, 4, "a"}, &Span{4, 8, nil}, &Span{2, 1, "b"}),
			"span x=2 w=1: out of origin order"},
		{"fixed/clean with free neighbours and a tail",
			fixed(&Span{0, 2, nil}, &Span{2, 2, nil}, &Span{4, 4, "a"}), ""},
		{"fixed/overlap",
			fixed(&Span{0, 4, "a"}, &Span{3, 2, nil}, &Span{5, 2, nil}),
			"span x=3 w=2: overlaps the previous span by 1 column(s)"},
		{"fixed/gap",
			fixed(&Span{0, 4, "a"}, &Span{6, 2, nil}),
			"span x=6 w=2: gap of 2 column(s) before it in a fixed slot table"},
	} {
		t.Run(c.name, func(t *testing.T) {
			got := ""
			if err := c.rm.Check(); err != nil {
				got = err.Error()
			}
			if got != c.want {
				t.Errorf("Check() = %q, want %q", got, c.want)
			}
			if c.want != "" || raceEnabled { // the race detector defeats escape analysis
				return
			}
			if n := testing.AllocsPerRun(100, func() { _ = c.rm.Check() }); n != 0 {
				t.Errorf("Check of a clean map allocates %v times, want 0", n)
			}
		})
	}
}

// A manager's Check names what failed: the manager, then the column map
// or the device, and a multi-manager's board.
func TestManagerCheckNamesTheFault(t *testing.T) {
	opt := testOptions()
	for _, c := range []struct {
		name  string
		build func(t *testing.T) (interface{ Check() error }, string)
	}{
		{"partition: an occupied span widened over its neighbour", func(t *testing.T) (interface{ Check() error }, string) {
			h, pm := partHarness(t, opt, hostos.Config{Policy: hostos.FIFO}, PartitionConfig{Mode: VariablePartitions})
			h.OS.Spawn("a", 0, []hostos.Op{fpgaOp("adder8", 100_000)})
			h.OS.Spawn("b", 0, []hostos.Op{fpgaOp("parity16", 100_000)})
			h.K.RunUntil(500 * sim.Microsecond)
			if err := pm.Check(); err != nil {
				t.Fatalf("live map fails its check before the fault: %v", err)
			}
			first, next := pm.rm.spans[0], pm.rm.spans[1]
			if first.Free() {
				t.Fatalf("no strip at column 0: %+v", pm.Regions())
			}
			first.W++
			return pm, fmt.Sprintf("partitions(variable): column map: span x=%d w=%d: overlaps the previous span by 1 column(s)", next.X, next.W)
		}},
		{"multi: board 1's span widened over its neighbour", func(t *testing.T) (interface{ Check() error }, string) {
			m, err := NewMultiManager(sim.New(), []*Engine{newEngine(t, opt), newEngine(t, opt)}, PartitionConfig{Mode: VariablePartitions}, nil)
			if err != nil {
				t.Fatal(err)
			}
			rm := m.Boards[1].rm
			s := rm.Alloc(rm.FindFree(4, FirstFit), 4, &strip{circuit: "adder8"})
			if err := m.Check(); err != nil {
				t.Fatalf("multi-manager fails its check before the fault: %v", err)
			}
			s.W += 2
			return m, fmt.Sprintf("board1/partitions(variable): column map: span x=4 w=%d: overlaps the previous span by 2 column(s)", opt.Geometry.Cols-4)
		}},
		{"dynamic: a CLB reading blank fabric", func(t *testing.T) (interface{ Check() error }, string) {
			e := newEngine(t, opt)
			d := NewDynamicLoader(sim.New(), e, nil)
			e.Dev.WriteCLB(0, 0, fabric.CLBConfig{Used: true, Inputs: [fabric.LUTInputs]fabric.Source{fabric.CLBSource(1, 1)}})
			return d, "dynamic: CLB (0,0) input 0: reads unconfigured CLB (1,1)"
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			mgr, want := c.build(t)
			if err := mgr.Check(); fmt.Sprint(err) != want {
				t.Errorf("Check() = %v, want %q", err, want)
			}
		})
	}
}
