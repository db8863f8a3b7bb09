package sim

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestZeroKernel(t *testing.T) {
	var k Kernel
	if k.Now() != 0 || k.Pending() != 0 {
		t.Fatal("zero kernel not at time 0 with empty queue")
	}
	if k.Step() {
		t.Fatal("Step on empty kernel returned true")
	}
}

func TestScheduleOrdering(t *testing.T) {
	k := New()
	var got []int
	record := func(i int) { got = append(got, i) }
	k.Schedule(30, 0, record, 3)
	k.Schedule(10, 0, record, 1)
	k.Schedule(20, 0, record, 2)
	k.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if k.Now() != 30 {
		t.Fatalf("final time = %v, want 30", k.Now())
	}
}

func TestSameTimeFIFO(t *testing.T) {
	k := New()
	var got []int
	record := func(i int) { got = append(got, i) }
	for i := 0; i < 10; i++ {
		k.Schedule(5, 0, record, i)
	}
	k.Run()
	for i := range got {
		if got[i] != i {
			t.Fatalf("same-time events out of scheduling order: %v", got)
		}
	}
}

func TestPriorityOrdering(t *testing.T) {
	k := New()
	var got []string
	k.Schedule(5, 1, func(int) { got = append(got, "low") }, 0)
	k.Schedule(5, 0, func(int) { got = append(got, "high") }, 0)
	k.Run()
	if got[0] != "high" || got[1] != "low" {
		t.Fatalf("priority order wrong: %v", got)
	}
}

func TestSchedulePastPanics(t *testing.T) {
	k := New()
	k.Schedule(100, 0, func(int) {
		defer func() {
			if recover() == nil {
				t.Error("scheduling into the past did not panic")
			}
		}()
		k.Schedule(50, 0, func(int) {}, 0)
	}, 0)
	k.Run()
}

func TestNilFuncPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("nil fn did not panic")
		}
	}()
	New().Schedule(0, 0, nil, 0)
}

func TestCancel(t *testing.T) {
	k := New()
	fired := false
	e := k.Schedule(10, 0, func(int) { fired = true }, 0)
	if !k.Cancel(e) {
		t.Fatal("Cancel of a pending event reported false")
	}
	k.Run()
	if fired {
		t.Fatal("canceled event fired")
	}
	// Double-cancel and zero-handle cancel are no-ops.
	if k.Cancel(e) || k.Cancel(Event{}) {
		t.Fatal("Cancel of a stale or zero handle reported true")
	}
}

func TestCancelOneOfMany(t *testing.T) {
	k := New()
	var got []int
	var events []Event
	record := func(i int) { got = append(got, i) }
	for i := 0; i < 5; i++ {
		events = append(events, k.Schedule(Time(i*10), 0, record, i))
	}
	k.Cancel(events[2])
	k.Run()
	want := []int{0, 1, 3, 4}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestRunUntil(t *testing.T) {
	k := New()
	var got []Time
	record := func(at int) { got = append(got, Time(at)) }
	for _, at := range []Time{10, 20, 30, 40} {
		k.Schedule(at, 0, record, int(at))
	}
	n := k.RunUntil(25)
	if n != 2 || len(got) != 2 {
		t.Fatalf("RunUntil fired %d events (%v), want 2", n, got)
	}
	if k.Now() != 25 {
		t.Fatalf("clock = %v, want 25", k.Now())
	}
	if k.Pending() != 2 {
		t.Fatalf("pending = %d, want 2", k.Pending())
	}
	k.Run()
	if len(got) != 4 {
		t.Fatalf("remaining events did not fire: %v", got)
	}
}

func TestRunUntilAdvancesIdleClock(t *testing.T) {
	k := New()
	k.RunUntil(1000)
	if k.Now() != 1000 {
		t.Fatalf("idle clock = %v, want 1000", k.Now())
	}
}

// TestEventsFired: the kernel counts every event it runs, the count
// RunUntil reports its share of.
func TestEventsFired(t *testing.T) {
	k := New()
	for i := 0; i < 7; i++ {
		k.Schedule(Time(i), 0, func(int) {}, 0)
	}
	k.Run()
	if k.fired != 7 {
		t.Fatalf("fired = %d, want 7", k.fired)
	}
}

func TestCascadedScheduling(t *testing.T) {
	// An event chain where each event schedules the next; models a polling
	// loop. Ensures the kernel handles events scheduled during Run.
	k := New()
	count := 0
	var tick func(int)
	tick = func(int) {
		count++
		if count < 100 {
			k.Schedule(k.Now()+10, 0, tick, 0)
		}
	}
	k.Schedule(0, 0, tick, 0)
	k.Run()
	if count != 100 {
		t.Fatalf("chain executed %d ticks, want 100", count)
	}
	if k.Now() != 990 {
		t.Fatalf("final time %v, want 990", k.Now())
	}
}

func TestOrderingProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		k := New()
		var fired []Time
		record := func(at int) { fired = append(fired, Time(at)) }
		for _, r := range raw {
			k.Schedule(Time(r), 0, record, int(r))
		}
		k.Run()
		if len(fired) != len(raw) {
			return false
		}
		sorted := append([]Time(nil), fired...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		for i := range fired {
			if fired[i] != sorted[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		t    Time
		want string
	}{
		{0, "0s"},
		{5, "5ns"},
		{1500, "1.500us"},
		{2 * Millisecond, "2.000ms"},
		{3 * Second, "3s"},
		{1500 * Millisecond, "1.500s"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("Time(%d).String() = %q, want %q", int64(c.t), got, c.want)
		}
	}
}

func TestTimeConversions(t *testing.T) {
	if (3 * Millisecond).Milliseconds() != 3 {
		t.Fatal("Milliseconds conversion wrong")
	}
}

func BenchmarkScheduleRun(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		k := New()
		for j := 0; j < 1000; j++ {
			k.Schedule(Time(j%97), 0, func(int) {}, 0)
		}
		k.Run()
	}
}
