package sim

import "testing"

// Reset must return a kernel to its zero state — clock, queue, sequence
// numbers, fired counter — so a warm board reusing the kernel replays
// exactly like a fresh one.
func TestKernelReset(t *testing.T) {
	k := New()
	var order []int
	record := func(i int) { order = append(order, i) }
	k.Schedule(5*Microsecond, 0, record, 1)
	k.Schedule(2*Microsecond, 0, record, 2)
	k.Run()
	if len(order) != 2 || k.fired != 2 {
		t.Fatalf("warm-up run fired %d events (order %v)", k.fired, order)
	}
	// Leave something pending so Reset has a queue to drop.
	k.Schedule(9*Microsecond, 0, func(int) { t.Error("dropped event fired after Reset") }, 0)

	k.Reset()
	if k.Now() != 0 || k.Pending() != 0 || k.fired != 0 {
		t.Fatalf("after Reset: now=%v pending=%d fired=%d, want all zero",
			k.Now(), k.Pending(), k.fired)
	}

	// The reset kernel must behave like a fresh one, including FIFO
	// order among same-time events (seq restarted).
	order = nil
	k.Schedule(3*Microsecond, 0, record, 1)
	k.Schedule(3*Microsecond, 0, record, 2)
	end := k.Run()
	if end != 3*Microsecond || len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Fatalf("rerun after Reset: end=%v order=%v", end, order)
	}
}

// Resetting mid-run would corrupt the event loop; it must panic instead.
func TestKernelResetDuringRunPanics(t *testing.T) {
	k := New()
	k.Schedule(Microsecond, 0, func(int) {
		defer func() {
			if recover() == nil {
				t.Error("Reset during Run did not panic")
			}
		}()
		k.Reset()
	}, 0)
	k.Run()
}
