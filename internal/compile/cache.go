// Strip-compilation cache: the concurrent compile service behind the
// experiment harness.
//
// Strip compilation (map+place+route+bitgen) is the dominant cost of
// every experiment, and it is a pure function of its inputs, so results
// are shared process-wide. StripCache, a flat.Memo, provides three
// things the parallel runner needs that a plain map cannot:
//
//   - singleflight deduplication: concurrent workers requesting the same
//     key block on one compilation instead of redoing it;
//   - bounded LRU eviction, so a long-lived process cannot grow the cache
//     without limit;
//   - counters: hits, misses and dedups for vfpgabench's summary line;
//     those, evictions, entries and bound for the daemon's /metrics;
//     compilations in flight for Stats alone.
package compile

import (
	"repro/internal/fabric"
	"repro/internal/flat"
	"repro/internal/netlist"
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

// CacheStats is a snapshot of a StripCache's counters: its memo's, each
// entry weighing 1.
type CacheStats = flat.MemoStats

// StripCache is a concurrent, bounded, deduplicating cache over
// CompileStrip: a flat.Memo of one strip compilation per key, each
// weighing 1. The zero value is not usable; use NewStripCache.
type StripCache struct {
	memo *flat.Memo[CacheKey, *Circuit]
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
	return &StripCache{flat.NewMemo[CacheKey](capacity, func(*Circuit) int { return 1 })}
}

// CompileStrip returns the strip compilation of nl for the given shape and
// options, compiling at most once per key even under concurrent callers.
// The returned Circuit is shared and must be treated as immutable (every
// consumer in this repository already does).
func (sc *StripCache) CompileStrip(nl *netlist.Netlist, rows, tracks int, opt Options) (*Circuit, error) {
	return sc.memo.Get(keyOf(nl, rows, tracks, opt), func() (*Circuit, error) {
		return CompileStrip(nl, rows, tracks, opt)
	})
}

// Cached returns what CompileStrip would for the same arguments when the
// cache holds it, counting the hit, and false otherwise, counting
// nothing: a caller that then compiles through CompileStrip counts the
// lookup there.
func (sc *StripCache) Cached(nl *netlist.Netlist, rows, tracks int, opt Options) (*Circuit, bool) {
	return sc.memo.Cached(keyOf(nl, rows, tracks, opt))
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

// Stats returns a snapshot of the cache counters.
func (sc *StripCache) Stats() CacheStats { return sc.memo.Stats() }
