package sim

import (
	"fmt"
	"sort"
	"testing"

	"repro/internal/rng"
)

// In steady state — the queue's arrays grown, the handler bound once —
// scheduling and stepping allocate nothing: events live by value in the
// kernel's heap and a handle is a plain value.
func TestScheduleStepAllocatesNothing(t *testing.T) {
	k := New()
	fn := func(int) {}
	round := func() {
		for i := 0; i < 64; i++ {
			k.Schedule(k.Now()+Time(i%7), i%3, fn, 0)
		}
		e := k.Schedule(k.Now()+3, 0, fn, 0)
		k.Cancel(e)
		for k.Step() {
		}
	}
	round() // grow the heap and slot tables once
	if n := testing.AllocsPerRun(50, round); n != 0 {
		t.Errorf("schedule+cancel+step allocates %v times per round, want 0", n)
	}
	k.Reset()
	if n := testing.AllocsPerRun(50, func() { round(); k.Reset() }); n != 0 {
		t.Errorf("after Reset: %v allocations per round, want 0 (Reset keeps the arrays)", n)
	}
}

// The argument is how a run schedules per-job or per-task work without a
// closure per event: the handler is bound once, the subject rides in the
// event, and nothing is allocated per schedule, fire or cancel.
func TestScheduleArgAllocatesNothing(t *testing.T) {
	k := New()
	sum := 0
	fn := func(i int) { sum += i }
	round := func() {
		for i := 0; i < 64; i++ {
			k.Schedule(k.Now()+Time(i%7), i%3, fn, i)
		}
		k.Cancel(k.Schedule(k.Now()+3, 0, fn, 1000))
		for k.Step() {
		}
	}
	round() // grow the heap and slot tables once
	if n := testing.AllocsPerRun(50, round); n != 0 {
		t.Errorf("schedule+cancel+step with arguments allocates %v times per round, want 0", n)
	}
	// One warm-up round, AllocsPerRun's own warm-up, then 50 measured:
	// every argument but the canceled one's arrives, once per round.
	if want := 52 * (63 * 64 / 2); sum != want {
		t.Errorf("handlers saw argument sum %d, want %d", sum, want)
	}
}

// refEvent is the reference model's view of one scheduled event.
type refEvent struct {
	at       Time
	priority int
	seq      int // scheduling order since the test began, never reset
	id       int
}

// TestKernelMatchesSortedReference drives random schedule / cancel /
// step / reset scripts through the kernel and through a reference that
// keeps pending events in a slice and sorts it by (at, priority, seq).
// Events are a random mix of one handler bound for all of them, told
// its event by the argument, and a closure per event that ignores it.
// Cancel must report exactly whether the handle named a pending event —
// including handles whose event already fired, was already canceled,
// was dropped by a Reset, or whose slot a later event has recycled.
func TestKernelMatchesSortedReference(t *testing.T) {
	for seed := uint64(1); seed <= 200; seed++ {
		src := rng.New(seed)
		k := New()
		var (
			pending []refEvent // reference queue
			handles []Event    // every handle ever issued, by id
			fired   []int      // ids in the order the kernel fired them
			want    []int      // ids in the order the reference fires them
			nextSeq int
		)
		byArg := func(id int) { fired = append(fired, id) }
		schedule := func() {
			id := len(handles)
			at := k.Now() + Time(src.Intn(20))
			pri := src.Intn(3)
			if src.Intn(2) == 0 {
				handles = append(handles, k.Schedule(at, pri, byArg, id))
			} else {
				handles = append(handles, k.Schedule(at, pri, func(int) { fired = append(fired, id) }, -1))
			}
			pending = append(pending, refEvent{at: at, priority: pri, seq: nextSeq, id: id})
			nextSeq++
		}
		refStep := func() bool {
			if len(pending) == 0 {
				return false
			}
			sort.Slice(pending, func(i, j int) bool {
				a, b := pending[i], pending[j]
				if a.at != b.at {
					return a.at < b.at
				}
				if a.priority != b.priority {
					return a.priority < b.priority
				}
				return a.seq < b.seq
			})
			want = append(want, pending[0].id)
			pending = pending[1:]
			return true
		}
		for step := 0; step < 300; step++ {
			switch op := src.Intn(10); {
			case op < 5:
				schedule()
			case op < 7 && len(handles) > 0:
				// Any handle ever issued: pending, fired, canceled, reset away.
				id := src.Intn(len(handles))
				live := false
				for i, e := range pending {
					if e.id == id {
						pending = append(pending[:i], pending[i+1:]...)
						live = true
						break
					}
				}
				if got := k.Cancel(handles[id]); got != live {
					t.Fatalf("seed %d step %d: Cancel(handle %d) = %v, reference says pending = %v", seed, step, id, got, live)
				}
			case op < 9:
				before := k.Now()
				if got, ref := k.Step(), refStep(); got != ref {
					t.Fatalf("seed %d step %d: Step = %v, reference %v", seed, step, got, ref)
				}
				if k.Now() < before {
					t.Fatalf("seed %d step %d: clock ran backwards", seed, step)
				}
			default:
				if src.Intn(8) == 0 {
					k.Reset()
					pending = pending[:0]
				}
			}
			if k.Pending() != len(pending) {
				t.Fatalf("seed %d step %d: Pending = %d, reference %d", seed, step, k.Pending(), len(pending))
			}
		}
		for refStep() {
		}
		k.Run()
		if fmt.Sprint(fired) != fmt.Sprint(want) {
			t.Fatalf("seed %d: fired order differs from the sorted reference\n got %v\nwant %v", seed, fired, want)
		}
	}
}
