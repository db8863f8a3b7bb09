// Strip-compilation cache: the concurrent compile service behind the
// experiment harness.
//
// Strip compilation (map+place+route+bitgen) is the dominant cost of
// every experiment, and it is a pure function of its inputs, so results
// are shared process-wide. StripCache provides three things the parallel
// runner needs that a plain map cannot:
//
//   - singleflight deduplication: concurrent workers requesting the same
//     key block on one compilation instead of redoing it;
//   - bounded LRU eviction, so a long-lived process cannot grow the cache
//     without limit;
//   - counters (internal/stats): hits, misses and dedups for vfpgabench's
//     summary line; those, evictions, entries and capacity for the
//     daemon's /metrics; compilations in flight for Stats alone.
package compile

import (
	"container/list"
	"errors"
	"sync"

	"repro/internal/fabric"
	"repro/internal/netlist"
	"repro/internal/stats"
)

// CacheKey identifies one strip compilation. Every flow input that can
// change the compiled output participates in the key, so two lookups with
// equal keys always denote byte-identical circuits — the property that
// makes sharing the cache between concurrent experiments deterministic.
// The netlist enters the key by name alone, so a name must identify
// netlist content. For the registry library that holds by construction:
// netlist.MustLookup hands out one immutable instance per name for the life
// of the process, and no two entries share a name (a netlist test pins
// it). The deterministic Segment/Concat derivations name their outputs
// after their inputs and parameters; a hand-built netlist must not reuse
// a library name for different logic.
type CacheKey struct {
	Name       string
	Rows       int
	Tracks     int
	Seed       uint64
	DisableOpt bool
	Timing     fabric.Timing
}

// CacheStats is a snapshot of a StripCache's counters.
type CacheStats struct {
	Hits      int64 // lookups answered from the cache
	Misses    int64 // lookups that compiled
	Dedups    int64 // lookups that joined an in-flight compilation
	Evictions int64 // entries displaced by the LRU bound
	InFlight  int64 // compilations running right now
	Size      int   // entries currently cached
	Capacity  int   // LRU bound
}

// Lookups returns the total number of cache lookups.
func (s CacheStats) Lookups() int64 { return s.Hits + s.Misses + s.Dedups }

// HitRate returns the fraction of lookups that avoided a compilation
// (cache hits plus singleflight joins), or 0 with no lookups.
func (s CacheStats) HitRate() float64 {
	n := s.Lookups()
	if n == 0 {
		return 0
	}
	return float64(s.Hits+s.Dedups) / float64(n)
}

type cacheEntry struct {
	key CacheKey
	c   *Circuit
}

// flight is one in-progress compilation; joiners wait on done.
type flight struct {
	done chan struct{}
	c    *Circuit
	err  error
}

// StripCache is a concurrent, bounded, deduplicating cache over
// CompileStrip. The zero value is not usable; use NewStripCache.
type StripCache struct {
	// The counters are self-synchronized atomics, and capacity is fixed
	// at construction; both sit above mu, which guards only the LRU
	// structures below it.
	hits, misses, dedups, evictions stats.AtomicCounter
	inFlight                        stats.AtomicCounter
	capacity                        int

	mu       sync.Mutex
	lru      *list.List // front = most recently used; values are *cacheEntry
	entries  map[CacheKey]*list.Element
	inflight map[CacheKey]*flight
}

// DefaultCacheCapacity bounds a StripCache when NewStripCache is given a
// non-positive capacity. The full harness compiles a few dozen distinct
// (circuit, geometry, seed) keys; 512 leaves generous headroom while
// keeping a long-lived process bounded.
const DefaultCacheCapacity = 512

// NewStripCache returns an empty cache holding at most capacity circuits
// (<= 0 selects DefaultCacheCapacity).
func NewStripCache(capacity int) *StripCache {
	if capacity <= 0 {
		capacity = DefaultCacheCapacity
	}
	return &StripCache{
		capacity: capacity,
		lru:      list.New(),
		entries:  map[CacheKey]*list.Element{},
		inflight: map[CacheKey]*flight{},
	}
}

// CompileStrip returns the strip compilation of nl for the given shape and
// options, compiling at most once per key even under concurrent callers.
// The returned Circuit is shared and must be treated as immutable (every
// consumer in this repository already does).
func (sc *StripCache) CompileStrip(nl *netlist.Netlist, rows, tracks int, opt Options) (*Circuit, error) {
	return sc.get(keyOf(nl, rows, tracks, opt), func() (*Circuit, error) {
		return CompileStrip(nl, rows, tracks, opt)
	})
}

// Cached returns what CompileStrip would for the same arguments when the
// cache holds it, counting the hit, and false otherwise, counting
// nothing: a caller that then compiles through CompileStrip counts the
// lookup there.
func (sc *StripCache) Cached(nl *netlist.Netlist, rows, tracks int, opt Options) (*Circuit, bool) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	return sc.hitLocked(keyOf(nl, rows, tracks, opt))
}

// keyOf is the cache key of a strip compile.
func keyOf(nl *netlist.Netlist, rows, tracks int, opt Options) CacheKey {
	timing := fabric.DefaultTiming()
	if opt.Timing != nil {
		timing = *opt.Timing
	}
	return CacheKey{
		Name:       nl.Name,
		Rows:       rows,
		Tracks:     tracks,
		Seed:       opt.Seed,
		DisableOpt: opt.DisableOpt,
		Timing:     timing,
	}
}

// hitLocked returns the cached circuit for key, counting the hit and
// marking it most recently used, or false.
func (sc *StripCache) hitLocked(key CacheKey) (*Circuit, bool) {
	el, ok := sc.entries[key]
	if !ok {
		return nil, false
	}
	sc.lru.MoveToFront(el)
	sc.hits.Inc()
	return el.Value.(*cacheEntry).c, true
}

// get looks key up, joining an in-flight compilation or running fn once.
// Failed compilations are delivered to all waiters but never cached, so a
// transient caller error does not poison the key. If fn panics, the
// flight ends all the same: its joiners get an error, the next lookup
// compiles afresh, and the panic goes on up the compiling caller's stack.
func (sc *StripCache) get(key CacheKey, fn func() (*Circuit, error)) (*Circuit, error) {
	sc.mu.Lock()
	if c, ok := sc.hitLocked(key); ok {
		sc.mu.Unlock()
		return c, nil
	}
	if f, ok := sc.inflight[key]; ok {
		sc.dedups.Inc()
		sc.mu.Unlock()
		<-f.done
		return f.c, f.err
	}
	f := &flight{done: make(chan struct{})}
	sc.inflight[key] = f
	sc.misses.Inc()
	sc.inFlight.Inc()
	sc.mu.Unlock()

	// Until fn returns, the flight reads as panicked: that is what land
	// hands the joiners if it never does.
	f.err = errPanicked
	defer sc.land(key, f)
	f.c, f.err = fn()
	return f.c, f.err
}

// errPanicked is what the joiners of a flight whose compilation panicked
// get.
var errPanicked = errors.New("compile: strip compilation panicked")

// land ends flight f for key: caches a success, releases the key and
// wakes the joiners.
func (sc *StripCache) land(key CacheKey, f *flight) {
	sc.mu.Lock()
	delete(sc.inflight, key)
	sc.inFlight.Dec()
	if f.err == nil {
		sc.entries[key] = sc.lru.PushFront(&cacheEntry{key: key, c: f.c})
		for sc.lru.Len() > sc.capacity {
			oldest := sc.lru.Back()
			sc.lru.Remove(oldest)
			delete(sc.entries, oldest.Value.(*cacheEntry).key)
			sc.evictions.Inc()
		}
	}
	sc.mu.Unlock()
	close(f.done)
}

// Len returns the number of cached circuits.
func (sc *StripCache) Len() int {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	return sc.lru.Len()
}

// Stats returns a snapshot of the cache counters.
func (sc *StripCache) Stats() CacheStats {
	sc.mu.Lock()
	size := sc.lru.Len()
	sc.mu.Unlock()
	return CacheStats{
		Hits:      sc.hits.Value(),
		Misses:    sc.misses.Value(),
		Dedups:    sc.dedups.Value(),
		Evictions: sc.evictions.Value(),
		InFlight:  sc.inFlight.Value(),
		Size:      size,
		Capacity:  sc.capacity,
	}
}
