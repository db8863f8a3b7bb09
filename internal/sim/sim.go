// Package sim implements the discrete-event simulation kernel that drives
// the whole VFPGA reproduction: the host operating system, the FPGA
// configuration ports, and the workloads all advance a single virtual
// clock through this kernel.
//
// The kernel is strictly deterministic: events scheduled for the same
// virtual time fire in (time, priority, sequence) order, where sequence is
// the order of scheduling. Virtual time is an int64 nanosecond count; it
// never touches the wall clock, so experiment results are bit-reproducible.
package sim

import "fmt"

// Time is a point in virtual time, in nanoseconds since simulation start.
type Time int64

// Common durations, mirroring time.Duration constants but in virtual time.
const (
	Nanosecond  Time = 1
	Microsecond      = 1000 * Nanosecond
	Millisecond      = 1000 * Microsecond
	Second           = 1000 * Millisecond
)

// String renders the time with an adaptive unit, e.g. "1.5ms".
func (t Time) String() string {
	switch {
	case t == 0:
		return "0s"
	case t%Second == 0:
		return fmt.Sprintf("%ds", t/Second)
	case t >= Second:
		return fmt.Sprintf("%.3fs", float64(t)/float64(Second))
	case t >= Millisecond:
		return fmt.Sprintf("%.3fms", float64(t)/float64(Millisecond))
	case t >= Microsecond:
		return fmt.Sprintf("%.3fus", float64(t)/float64(Microsecond))
	default:
		return fmt.Sprintf("%dns", int64(t))
	}
}

// Milliseconds returns the time as a float64 millisecond count.
func (t Time) Milliseconds() float64 { return float64(t) / float64(Millisecond) }

// Event is a handle on a scheduled callback, returned by Schedule so the
// caller can cancel it (e.g. a preemption timer that is no longer
// needed). It is a plain value: the zero Event names no event, and a
// handle goes stale — Cancel ignores it — once its event has fired, been
// canceled, or been dropped by Reset. Sequence numbers are never reused,
// so a stale handle cannot name a later event that recycled its slot.
type Event struct {
	slot int32
	seq  uint64
}

// event is one queued event's place in the order. Events live by value
// in the kernel's heap; slot is the entry in Kernel.slots that tracks
// where and holds what the event runs, so a sift moves only the ordering
// key.
type event struct {
	at       Time
	priority int
	seq      uint64
	slot     int32
}

// slotEntry is the kernel's record of one slot: the heap index of the
// event that owns it (-1 while the slot is free) and what that event
// runs, fn called with arg.
type slotEntry struct {
	pos int32
	fn  func(int)
	arg int
}

func (e *event) before(o *event) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	if e.priority != o.priority {
		return e.priority < o.priority
	}
	return e.seq < o.seq
}

// Kernel is a discrete-event simulation engine. The zero value is ready
// to use at virtual time zero.
//
// The queue is a binary heap of event values ordered by (time, priority,
// sequence). Each queued event owns a slot: slots[slot].pos is its
// current heap index, which is what lets Cancel find it, and -1 once the
// slot is back on the free list; slots[slot].fn and arg are what it
// runs. The heap, slots and free keep their backing arrays across Reset,
// so a kernel in steady state schedules without allocating.
type Kernel struct {
	now     Time
	heap    []event
	slots   []slotEntry
	free    []int32
	seq     uint64 // last sequence number issued; never reset
	running bool
	fired   int64
}

// New returns a kernel at virtual time zero.
func New() *Kernel { return &Kernel{} }

// Now returns the current virtual time.
func (k *Kernel) Now() Time { return k.now }

// Pending returns the number of events currently queued.
func (k *Kernel) Pending() int { return len(k.heap) }

// Schedule arranges for fn(arg) to run at absolute virtual time at.
// Among events at the same time, lower priority values fire first, and
// events of equal priority in scheduling order; the host OS uses
// priorities to order hardware completions before scheduler decisions.
// fn is a handler its owner binds once and arg names what this event is
// about — a job or task index — so scheduling closes over nothing and
// allocates nothing; a handler with no subject ignores arg. Scheduling
// in the past panics — that is always a logic error in a discrete-event
// model.
func (k *Kernel) Schedule(at Time, priority int, fn func(int), arg int) Event {
	if fn == nil {
		panic("sim: Schedule with nil function")
	}
	if at < k.now {
		panic(fmt.Sprintf("sim: scheduling into the past: %v < now %v", at, k.now))
	}
	var slot int32
	if n := len(k.free); n > 0 {
		slot = k.free[n-1]
		k.free = k.free[:n-1]
		k.slots[slot].fn, k.slots[slot].arg = fn, arg
	} else {
		slot = int32(len(k.slots))
		k.slots = append(k.slots, slotEntry{pos: -1, fn: fn, arg: arg})
	}
	k.seq++
	k.heap = append(k.heap, event{at: at, priority: priority, seq: k.seq, slot: slot})
	k.up(len(k.heap) - 1)
	return Event{slot: slot, seq: k.seq}
}

// Cancel removes a scheduled event and reports whether it did. A stale
// or zero handle — the event already fired, was already canceled, or was
// dropped by Reset — is a no-op that reports false.
func (k *Kernel) Cancel(e Event) bool {
	if e.seq == 0 || int(e.slot) >= len(k.slots) {
		return false
	}
	i := int(k.slots[e.slot].pos)
	if i < 0 || k.heap[i].seq != e.seq {
		return false
	}
	k.remove(i)
	return true
}

// remove deletes heap[i], frees its slot, and restores heap order.
func (k *Kernel) remove(i int) {
	slot := k.heap[i].slot
	k.slots[slot] = slotEntry{pos: -1} // and drop the callback references
	k.free = append(k.free, slot)
	last := len(k.heap) - 1
	moved := k.heap[last]
	k.heap = k.heap[:last]
	if i != last {
		k.heap[i] = moved
		k.down(i)
		k.up(i)
	}
}

// up sifts heap[i] toward the root.
func (k *Kernel) up(i int) {
	e := k.heap[i]
	for i > 0 {
		parent := (i - 1) / 2
		if !e.before(&k.heap[parent]) {
			break
		}
		k.heap[i] = k.heap[parent]
		k.slots[k.heap[i].slot].pos = int32(i)
		i = parent
	}
	k.heap[i] = e
	k.slots[e.slot].pos = int32(i)
}

// down sifts heap[i] toward the leaves.
func (k *Kernel) down(i int) {
	e := k.heap[i]
	n := len(k.heap)
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if r := child + 1; r < n && k.heap[r].before(&k.heap[child]) {
			child = r
		}
		if !k.heap[child].before(&e) {
			break
		}
		k.heap[i] = k.heap[child]
		k.slots[k.heap[i].slot].pos = int32(i)
		i = child
	}
	k.heap[i] = e
	k.slots[e.slot].pos = int32(i)
}

// Step executes the single next event, advancing the clock to its time.
// It returns false when the queue is empty.
func (k *Kernel) Step() bool {
	if len(k.heap) == 0 {
		return false
	}
	at, e := k.heap[0].at, k.slots[k.heap[0].slot]
	k.remove(0)
	k.now = at
	k.fired++
	e.fn(e.arg)
	return true
}

// Run executes events until the queue drains, and returns the final time.
func (k *Kernel) Run() Time {
	if k.running {
		panic("sim: Run re-entered")
	}
	k.running = true
	defer func() { k.running = false }()
	for k.Step() {
	}
	return k.now
}

// Reset returns the kernel to virtual time zero with an empty queue, as
// if freshly constructed, but keeps the queue's backing arrays: it is how
// a dead stack hands its kernel to the next run built on it
// (baseline.NewStack).
// Pending events are dropped and every handle issued so far goes stale.
// Resetting while Run/RunUntil is executing panics — the event loop must
// have drained (or been abandoned) first.
func (k *Kernel) Reset() {
	if k.running {
		panic("sim: Reset during Run")
	}
	clear(k.slots) // drop the callback references
	k.heap = k.heap[:0]
	k.slots = k.slots[:0]
	k.free = k.free[:0]
	k.now = 0
	k.fired = 0
}

// RunUntil executes events with time <= deadline. Events scheduled beyond
// the deadline remain queued; the clock is advanced to the deadline even
// if the queue drained earlier. It returns the number of events fired.
func (k *Kernel) RunUntil(deadline Time) int64 {
	if k.running {
		panic("sim: RunUntil re-entered")
	}
	k.running = true
	defer func() { k.running = false }()
	start := k.fired
	for len(k.heap) > 0 && k.heap[0].at <= deadline {
		k.Step()
	}
	if k.now < deadline {
		k.now = deadline
	}
	return k.fired - start
}
