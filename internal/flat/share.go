package flat

import (
	"container/list"
	"errors"
	"sync"
)

// Memo is a bounded memo of one build per key, safe for concurrent use.
// A key's value is built once while it is held: a caller asking for a
// key whose build is running waits for that build (singleflight) and
// gets its result. Each value weighs weight(v); the least recently used
// values are dropped to keep the weight held at most the bound, and a
// value heavier than the whole bound is returned but not kept. A failed
// build goes to its waiters and is never kept, so the next lookup builds
// again. A panicking build ends its flight all the same: its waiters get
// an error, the next lookup builds afresh, and the panic goes on up the
// building caller's stack.
type Memo[K comparable, V any] struct {
	// bound and weight are fixed at construction, so they sit above mu,
	// which guards the rest.
	bound  int
	weight func(V) int

	mu      sync.Mutex
	lru     list.List // front = most recently used; values are *memoEntry[K, V]
	held    map[K]*list.Element
	flights map[K]*memoEntry[K, V]
	stats   MemoStats
}

// memoEntry is one key's record: its flight while it is built, whose
// waiters wait on done, then its entry in the LRU list.
type memoEntry[K comparable, V any] struct {
	key  K
	v    V
	err  error
	w    int
	done sync.WaitGroup
}

// MemoStats is a snapshot of a Memo's counters.
type MemoStats struct {
	Hits      int64 // lookups answered from the memo
	Misses    int64 // lookups that built
	Dedups    int64 // lookups that waited on another caller's build
	Evictions int64 // values dropped to keep the bound
	InFlight  int   // builds running now
	Entries   int   // values held
	Weight    int   // their weight, at most Bound
	Bound     int
}

// Lookups returns the total number of lookups.
func (s MemoStats) Lookups() int64 { return s.Hits + s.Misses + s.Dedups }

// HitRate returns the fraction of lookups that avoided a build (hits
// plus waits on another caller's build), or 0 with no lookups.
func (s MemoStats) HitRate() float64 {
	n := s.Lookups()
	if n == 0 {
		return 0
	}
	return float64(s.Hits+s.Dedups) / float64(n)
}

// NewMemo returns an empty memo holding values of at most bound weight
// in all.
func NewMemo[K comparable, V any](bound int, weight func(V) int) *Memo[K, V] {
	return &Memo[K, V]{
		bound:   bound,
		weight:  weight,
		held:    map[K]*list.Element{},
		flights: map[K]*memoEntry[K, V]{},
	}
}

// errPanicked is what the waiters of a build that panicked get.
var errPanicked = errors.New("flat: memo build panicked")

// Get returns the value held for k, the result of the build of k that
// is running, or that of build, run once on the caller's goroutine.
func (m *Memo[K, V]) Get(k K, build func() (V, error)) (V, error) {
	m.mu.Lock()
	if v, ok := m.hitLocked(k); ok {
		m.mu.Unlock()
		return v, nil
	}
	if e, ok := m.flights[k]; ok {
		m.stats.Dedups++
		m.mu.Unlock()
		e.done.Wait()
		return e.v, e.err
	}
	// Until build returns, the flight reads as panicked: that is what
	// land hands the waiters if it never does.
	e := &memoEntry[K, V]{key: k, err: errPanicked}
	e.done.Add(1)
	m.flights[k] = e
	m.stats.Misses++
	m.mu.Unlock()
	defer m.land(e)
	e.v, e.err = build()
	return e.v, e.err
}

// Cached returns the value held for k, counting the hit, or false,
// counting nothing.
func (m *Memo[K, V]) Cached(k K) (V, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.hitLocked(k)
}

// hitLocked returns the value held for k, counting the hit and marking
// it most recently used, or false.
func (m *Memo[K, V]) hitLocked(k K) (V, bool) {
	el, ok := m.held[k]
	if !ok {
		var zero V
		return zero, false
	}
	m.lru.MoveToFront(el)
	m.stats.Hits++
	return el.Value.(*memoEntry[K, V]).v, true
}

// land ends e's flight: keeps a success that fits the bound, dropping
// the least recently used values until the weight held fits it again,
// and wakes the waiters.
func (m *Memo[K, V]) land(e *memoEntry[K, V]) {
	keep := e.err == nil
	if keep {
		e.w = m.weight(e.v)
		keep = e.w <= m.bound
	}
	m.mu.Lock()
	delete(m.flights, e.key)
	if keep {
		m.held[e.key] = m.lru.PushFront(e)
		m.stats.Weight += e.w
		for m.stats.Weight > m.bound {
			old := m.lru.Remove(m.lru.Back()).(*memoEntry[K, V])
			delete(m.held, old.key)
			m.stats.Weight -= old.w
			m.stats.Evictions++
		}
	}
	m.mu.Unlock()
	e.done.Done()
}

// Stats returns a snapshot of the counters.
func (m *Memo[K, V]) Stats() MemoStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := m.stats
	s.InFlight, s.Entries, s.Bound = len(m.flights), m.lru.Len(), m.bound
	return s
}

// FreeList keeps dead values for their next user, safe for concurrent
// use: a stack per key, so the value given back last, its arrays the
// warmest, is the one taken next. A bound above 0 caps the values kept
// per key; one given beyond it is left to the collector.
type FreeList[K comparable, V any] struct {
	bound int
	// Scribble, when set, overwrites what Give is handed before it goes
	// on the list: a package's tests set it, so a number read off a value
	// after it is given back is garbage in a serial run.
	Scribble func(V)

	mu   sync.Mutex
	free map[K][]V
}

// NewFreeList returns an empty free list keeping at most bound values
// per key, or any number with bound 0.
func NewFreeList[K comparable, V any](bound int) *FreeList[K, V] {
	return &FreeList[K, V]{bound: bound, free: map[K][]V{}}
}

// Take removes the value given back last under k and returns it, or the
// zero value when none is free.
func (f *FreeList[K, V]) Take(k K) V {
	f.mu.Lock()
	defer f.mu.Unlock()
	l := f.free[k]
	var v V
	if len(l) == 0 {
		return v
	}
	v, l[len(l)-1] = l[len(l)-1], v
	f.free[k] = l[:len(l)-1]
	return v
}

// Give puts v on the list under k. It is dead from here on: nothing may
// read it again.
func (f *FreeList[K, V]) Give(k K, v V) {
	if f.Scribble != nil {
		f.Scribble(v)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if l := f.free[k]; f.bound == 0 || len(l) < f.bound {
		f.free[k] = append(l, v)
	}
}
