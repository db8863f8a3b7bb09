package compile

import (
	"reflect"
	"runtime"
	"sync"
	"testing"

	"repro/internal/netlist"
)

func testKey(name string, seed uint64) CacheKey {
	return CacheKey{Name: name, Rows: 8, Tracks: 4, Seed: seed}
}

// TestCacheStatsMapsMemo reads the memo's counters through Stats, each
// strip weighing 1: a build parked in flight with a lookup waiting on
// it, then a hit, then a miss that evicts from a cache of one.
func TestCacheStatsMapsMemo(t *testing.T) {
	sc := NewStripCache(1)
	a, b := testKey("a", 1), testKey("b", 2)
	gate := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		sc.memo.Get(a, func() (*Circuit, error) { <-gate; return &Circuit{}, nil })
	}()
	for sc.Stats().InFlight == 0 {
		runtime.Gosched()
	}
	go func() {
		defer wg.Done()
		sc.memo.Get(a, func() (*Circuit, error) { t.Error("a joiner compiled"); return nil, nil })
	}()
	for sc.Stats().Dedups == 0 {
		runtime.Gosched()
	}
	if st := sc.Stats(); st.InFlight != 1 || st.Entries != 0 {
		t.Fatalf("during the flight: %d in flight, %d cached, want 1 and 0", st.InFlight, st.Entries)
	}
	close(gate)
	wg.Wait()
	sc.memo.Get(a, nil)
	sc.memo.Get(b, func() (*Circuit, error) { return &Circuit{}, nil })
	want := CacheStats{Hits: 1, Misses: 2, Dedups: 1, Evictions: 1, Entries: 1, Weight: 1, Bound: 1}
	if st := sc.Stats(); st != want {
		t.Fatalf("stats %+v, want %+v", st, want)
	}
}

func TestCacheKeyIncludesAllInputs(t *testing.T) {
	sc := NewStripCache(0) // 0 => default capacity
	if sc.Stats().Bound != DefaultCacheCapacity {
		t.Fatalf("bound=%d, want default %d", sc.Stats().Bound, DefaultCacheCapacity)
	}
	nl := netlist.Counter(4)
	type input struct {
		tracks int
		opt    Options
	}
	base := input{4, Options{Seed: 7}}
	variants := []input{
		{4, Options{Seed: 8}},
		{4, Options{Seed: 7, DisableOpt: true}},
		{6, Options{Seed: 7}},
	}
	for _, in := range append([]input{base}, variants...) {
		c, err := sc.CompileStrip(nl, 8, in.tracks, in.opt)
		if err != nil {
			t.Fatal(err)
		}
		if c.Tracks != in.tracks {
			t.Fatalf("compiled at %d tracks, routed at %d", in.tracks, c.Tracks)
		}
	}
	st := sc.Stats()
	if st.Misses != int64(1+len(variants)) || st.Hits != 0 {
		t.Fatalf("misses=%d hits=%d: option variants collided in the key", st.Misses, st.Hits)
	}
	// Same inputs again: pure hit.
	if _, err := sc.CompileStrip(nl, 8, base.tracks, base.opt); err != nil {
		t.Fatal(err)
	}
	if st := sc.Stats(); st.Hits != 1 {
		t.Fatalf("hits=%d, want 1", st.Hits)
	}
	if got := sc.Stats().HitRate(); got <= 0 || got >= 1 {
		t.Fatalf("hit rate %v out of range", got)
	}
}

// TestCacheKeyCoversOptions requires a same-named CacheKey field for every
// Options field (a pointer option keyed by the value it points to), so no
// flow option can change a compile without changing its key.
func TestCacheKeyCoversOptions(t *testing.T) {
	opts, key := reflect.TypeOf(Options{}), reflect.TypeOf(CacheKey{})
	for i := 0; i < opts.NumField(); i++ {
		f := opts.Field(i)
		want := f.Type
		if want.Kind() == reflect.Pointer {
			want = want.Elem()
		}
		k, ok := key.FieldByName(f.Name)
		if !ok {
			t.Errorf("Options.%s has no CacheKey field", f.Name)
		} else if k.Type != want {
			t.Errorf("CacheKey.%s is %v, Options.%s keys as %v", f.Name, k.Type, f.Name, want)
		}
	}
}
