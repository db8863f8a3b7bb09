// Built-set memo: a daemon's boards run the same few specs over and
// over, and equal Specs build equal Sets (spec.go), so a pool builds each
// resolved spec once and hands every later job the same *Set. A Set is
// read-only once built, which is what makes one shared between boards
// running concurrently sound.

package workload

import (
	"strings"
	"sync"

	"repro/internal/flat"
	"repro/internal/sim"
)

// MaxCachedOps bounds the ops a SetCache holds across all its sets: one
// set of MaxSpecOps ops, about 1.6 MB of programs, or a few hundred sets
// of the builtin scenarios' few hundred ops each. The bound is on ops,
// not entries, because one spec may build a set a thousand times the
// size of another.
const MaxCachedOps = MaxSpecOps

const _ = uint(MaxCachedOps - MaxSpecOps) // any set Validate admits fits

// setKey is a spec's resolved parameters: its scenario and that
// scenario's parameter block with the defaults applied, so
// {"scenario":"telecom"} and BuiltinSpec("telecom") share an entry. Each
// config is held by value, so a field added to one joins the key by
// itself.
type setKey struct {
	scenario   string
	multimedia MultimediaConfig
	telecom    TelecomConfig
	diagnosis  DiagnosisConfig
	storage    StorageConfig
	synthetic  syntheticKey
}

// syntheticKey is a SyntheticConfig in a form a map key can hold: the
// pool is a slice, so it enters joined (library names hold no newline)
// and the other fields are copied one by one.
// TestSetCacheKeyCoversEveryField fails on a field added to
// SyntheticConfig and not here.
type syntheticKey struct {
	tasks, opsPerTask         int
	evalsPerOp                int64
	computeTime, meanInterval sim.Time
	pool                      string
	switchProb                float64
	seed                      uint64
}

// key returns the spec's resolved parameters. Only the scenario's own
// block enters: key is read after Validate, which refuses any other.
func (s *Spec) key() setKey {
	k := setKey{scenario: s.Scenario}
	switch s.Scenario {
	case "multimedia":
		k.multimedia = resolved(s.Multimedia, DefaultMultimedia)
	case "telecom":
		k.telecom = resolved(s.Telecom, DefaultTelecom)
	case "diagnosis":
		k.diagnosis = resolved(s.Diagnosis, DefaultDiagnosis)
	case "storage":
		k.storage = resolved(s.Storage, DefaultStorage)
	case "synthetic":
		sy := resolved(s.Synthetic, DefaultSynthetic)
		k.synthetic = syntheticKey{
			tasks: sy.Tasks, opsPerTask: sy.OpsPerTask, evalsPerOp: sy.EvalsPerOp,
			computeTime: sy.ComputeTime, meanInterval: sy.MeanInterval,
			pool:       strings.Join(sy.Pool, "\n"),
			switchProb: sy.SwitchProb, seed: sy.Seed,
		}
	}
	return k
}

// SetCacheStats is a snapshot of a SetCache's counters.
type SetCacheStats struct {
	Hits   int64 // builds answered from the cache
	Misses int64 // builds that generated a set
	Ops    int   // ops held across the cached sets, at most MaxCachedOps
}

// SetCache is a bounded memo of Spec.Build keyed on the resolved
// parameters, a flat.Memo weighted by Set.Ops: equal resolved specs get
// the same *Set, which callers must treat as read-only, and a spec asked
// for while an equal one builds waits for that build. The least recently
// used sets are dropped to keep the ops held at most MaxCachedOps. The
// zero value is an empty cache; a nil *SetCache builds fresh every time,
// as a nil compile.StripCache compiles without one.
type SetCache struct {
	once sync.Once
	m    *flat.Memo[setKey, *Set]
}

// memo returns the cache's memo, made on first use.
func (c *SetCache) memo() *flat.Memo[setKey, *Set] {
	c.once.Do(func() { c.m = flat.NewMemo[setKey](MaxCachedOps, (*Set).Ops) })
	return c.m
}

// Build returns what spec.Build would: the cached set when an equal
// resolved spec was built before, else a new one, which is cached. A
// spec Validate refuses is refused before the lookup, so it can never be
// answered with a valid spec's set.
func (c *SetCache) Build(spec *Spec) (*Set, error) {
	if c == nil {
		return spec.Build()
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return c.memo().Get(spec.key(), spec.Build)
}

// Stats returns a snapshot of the counters. A build that waited for an
// equal spec's is a hit.
func (c *SetCache) Stats() SetCacheStats {
	s := c.memo().Stats()
	return SetCacheStats{Hits: s.Hits + s.Dedups, Misses: s.Misses, Ops: s.Weight}
}
