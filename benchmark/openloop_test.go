package main

import (
	"testing"
	"time"
)

// fakeClock advances only when slept on, plus whatever each send is said
// to cost: the generator's view of a server that stalls.
type fakeClock struct{ now time.Time }

func (c *fakeClock) Now() time.Time        { return c.now }
func (c *fakeClock) Sleep(d time.Duration) { c.now = c.now.Add(d) }

func TestOpenLoopTimesFromTheDueTime(t *testing.T) {
	start := time.Unix(1000, 0)
	clk := &fakeClock{now: start}
	ms := time.Millisecond
	schedule := []arrival{{due: 10 * ms, job: 0}, {due: 10 * ms, job: 1}, {due: 20 * ms, job: 2}, {due: 30 * ms, job: 3}}
	// The second send stalls the generator for 25 ms.
	cost := map[int]time.Duration{0: 1 * ms, 1: 25 * ms, 2: 1 * ms, 3: 1 * ms}
	type sent struct {
		job  int
		due  time.Duration
		late time.Duration
	}
	var got []sent
	openLoop(clk, start, schedule, func(a arrival, due time.Time, late time.Duration) {
		got = append(got, sent{a.job, due.Sub(start), late})
		clk.now = clk.now.Add(cost[a.job])
	})
	want := []sent{
		{0, 10 * ms, 0},       // slept until it was due
		{1, 10 * ms, 1 * ms},  // same tick, behind the first send
		{2, 20 * ms, 16 * ms}, // due at 20, the stall ended at 36: the stall is charged to it
		{3, 30 * ms, 7 * ms},  // and to the next one; the schedule is never pushed back
	}
	if len(got) != len(want) {
		t.Fatalf("sent %d arrivals, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("arrival %d: job %d due %v late %v, want job %d due %v late %v",
				i, got[i].job, got[i].due, got[i].late, want[i].job, want[i].due, want[i].late)
		}
	}
}

func TestOpenScheduleIsSeededAndQuantised(t *testing.T) {
	tick := 10 * time.Millisecond
	a := openSchedule(7, 800, 2*time.Second, tick)
	b := openSchedule(7, 800, 2*time.Second, tick)
	c := openSchedule(8, 800, 2*time.Second, tick)
	if len(a) != len(b) {
		t.Fatalf("same seed, %d and %d arrivals", len(a), len(b))
	}
	same := len(a) == len(c)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed, arrival %d differs: %v and %v", i, a[i], b[i])
		}
		if same && a[i] != c[i] {
			same = false
		}
		if a[i].due%tick != 0 || a[i].due <= 0 || a[i].due > 2*time.Second {
			t.Errorf("arrival %d due at %v: not on a tick inside the span", i, a[i].due)
		}
		if i > 0 && a[i].due < a[i-1].due {
			t.Errorf("arrival %d due before arrival %d", i, i-1)
		}
		if a[i].job != i {
			t.Errorf("arrival %d is job %d", i, a[i].job)
		}
	}
	if same {
		t.Error("seeds 7 and 8 drew the same schedule")
	}
	if n := len(a); n < 1400 || n > 1800 { // 1600 expected, sd 40
		t.Errorf("%d arrivals in 2 s at 800/s", n)
	}
}

func TestColdPlanCoversTheSameCircuitsOnEverySeed(t *testing.T) {
	var eligible []circuitInfo
	for i := 0; i < 46; i++ {
		eligible = append(eligible, circuitInfo{name: string(rune('A'+i/26)) + string(rune('a'+i%26)), gates: i * 3})
	}
	count := func(seed uint64) map[string]int {
		p, err := newColdPlan(seed, eligible)
		if err != nil {
			t.Fatal(err)
		}
		if len(p.ops) != coldRounds*coldCycle {
			t.Fatalf("%d ops, want %d", len(p.ops), coldRounds*coldCycle)
		}
		n := map[string]int{}
		for _, op := range p.ops[:coldCycle] { // one cycle
			if len(op.spec.Synthetic.Pool) != coldPool {
				t.Fatalf("pool of %d", len(op.spec.Synthetic.Pool))
			}
			for _, name := range op.spec.Synthetic.Pool {
				n[name]++
			}
		}
		return n
	}
	a, b := count(1), count(2)
	if len(a) != coldPool*coldCycle {
		t.Errorf("a cycle compiles %d distinct circuits, want %d", len(a), coldPool*coldCycle)
	}
	for name, n := range a {
		if n != 1 || b[name] != 1 {
			t.Errorf("circuit %s: %d times on seed 1, %d on seed 2, want once each", name, n, b[name])
		}
	}
	if _, dropped := a["Aa"]; dropped { // the smallest are the extras
		t.Error("the smallest circuit was kept")
	}
}
