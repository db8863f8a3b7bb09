package serve

import (
	"errors"
	"strconv"
	"strings"
)

// Job lookup errors, mapped to HTTP statuses by the API layer.
var (
	// ErrNoSuchJob means the id was never issued (404).
	ErrNoSuchJob = errors.New("no such job")
	// ErrJobExpired means the job finished long enough ago that its
	// record has been dropped (410).
	ErrJobExpired = errors.New("job expired")
)

// JobRetention is how many finished jobs a table keeps for status polls,
// beyond the jobs still in flight. It sits far above any client's poll
// window; past it a daemon's job state stops growing. A constant, not a
// setting: nothing in the repo needs a second value.
const JobRetention = 4096

// JobTable is the id -> job store under a Pool and under a fleet
// Scheduler: sequential ids, every in-flight job, and the most recently
// finished JobRetention ones — the oldest finished job is dropped first.
// Ids are sequential, so an absent id at or below the highest dropped
// one is known to have expired without keeping a tombstone for it. A
// JobTable is not safe for concurrent use; its owner's lock guards it.
type JobTable[J any] struct {
	prefix   string
	seq      int64  // last sequence number issued
	next     string // the id after seq, once formatted
	jobs     map[string]J
	finished []string // ring of retained finished ids, oldest at head once full
	head     int
	dropped  int64 // highest sequence number dropped
}

// NewJobTable returns an empty table issuing ids prefix000001, ….
func NewJobTable[J any](prefix string) *JobTable[J] {
	return &JobTable[J]{prefix: prefix, jobs: map[string]J{}}
}

// NextID returns the id the next Put will issue.
func (t *JobTable[J]) NextID() string {
	if t.next == "" {
		// prefix and the sequence number padded to six digits, formatted
		// on the stack: the string is the one allocation.
		var buf, digits [32]byte
		d := strconv.AppendInt(digits[:0], t.seq+1, 10)
		b := append(buf[:0], t.prefix...)
		if len(d) < 6 {
			b = append(b, "000000"[len(d):]...)
		}
		t.next = string(append(b, d...))
	}
	return t.next
}

// Put stores j in flight under the next id and returns the id.
func (t *JobTable[J]) Put(j J) string {
	id := t.NextID()
	t.seq, t.next = t.seq+1, ""
	t.jobs[id] = j
	return id
}

// Remove forgets a job that was issued an id and then not accepted.
func (t *JobTable[J]) Remove(id string) { delete(t.jobs, id) }

// Finish marks the job terminal: from now on it is kept only while it
// is among the JobRetention most recently finished.
func (t *JobTable[J]) Finish(id string) {
	if len(t.finished) < JobRetention {
		t.finished = append(t.finished, id)
		return
	}
	old := t.finished[t.head]
	t.finished[t.head] = id
	t.head = (t.head + 1) % JobRetention
	delete(t.jobs, old)
	if n := t.seqOf(old); n > t.dropped {
		t.dropped = n
	}
}

// Get returns the job, ErrJobExpired for an id whose record was dropped,
// or ErrNoSuchJob.
func (t *JobTable[J]) Get(id string) (J, error) {
	j, ok := t.jobs[id]
	if ok {
		return j, nil
	}
	if n := t.seqOf(id); n > 0 && n <= t.dropped {
		return j, ErrJobExpired
	}
	return j, ErrNoSuchJob
}

// Len returns the number of jobs held, in flight and finished.
//
//vfpgavet:ignore testonly -- the serve and fleet retention-bound tests read it
func (t *JobTable[J]) Len() int { return len(t.jobs) }

// seqOf returns the sequence number in id, or 0 when id is not one of
// this table's.
func (t *JobTable[J]) seqOf(id string) int64 {
	digits, ok := strings.CutPrefix(id, t.prefix)
	if !ok {
		return 0
	}
	n, err := strconv.ParseInt(digits, 10, 64)
	if err != nil {
		return 0
	}
	return n
}
