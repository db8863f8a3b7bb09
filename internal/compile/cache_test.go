package compile

import (
	"errors"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/netlist"
)

func testKey(name string, seed uint64) CacheKey {
	return CacheKey{Name: name, Rows: 8, Tracks: 4, Seed: seed}
}

func TestCacheSingleflight(t *testing.T) {
	sc := NewStripCache(16)
	key := testKey("sf", 1)
	const waiters = 8

	gate := make(chan struct{})
	var compiles int
	var wg sync.WaitGroup
	want := &Circuit{Name: "sf"}
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := sc.get(key, func() (*Circuit, error) {
				compiles++ // inside the flight: only one goroutine may get here
				<-gate
				return want, nil
			})
			if err != nil || c != want {
				t.Errorf("get: %v %v", c, err)
			}
		}()
	}
	// Wait until every goroutine has either claimed the flight or parked
	// on it, then release the one compiler.
	for sc.Stats().Misses+sc.Stats().Dedups < waiters {
	}
	close(gate)
	wg.Wait()

	st := sc.Stats()
	if compiles != 1 {
		t.Fatalf("compiled %d times, want 1", compiles)
	}
	if st.Misses != 1 || st.Dedups != waiters-1 {
		t.Fatalf("misses=%d dedups=%d, want 1 and %d", st.Misses, st.Dedups, waiters-1)
	}
	if st.InFlight != 0 {
		t.Fatalf("inflight=%d after completion", st.InFlight)
	}
	// A later lookup is a plain hit.
	if _, err := sc.get(key, func() (*Circuit, error) {
		t.Fatal("recompiled a cached key")
		return nil, nil
	}); err != nil {
		t.Fatal(err)
	}
	if st := sc.Stats(); st.Hits != 1 {
		t.Fatalf("hits=%d, want 1", st.Hits)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	sc := NewStripCache(2)
	mk := func(seed uint64) func() (*Circuit, error) {
		return func() (*Circuit, error) { return &Circuit{}, nil }
	}
	a, b, c := testKey("a", 1), testKey("b", 2), testKey("c", 3)
	sc.get(a, mk(1))
	sc.get(b, mk(2))
	sc.get(a, mk(1)) // touch a: b is now LRU
	sc.get(c, mk(3)) // evicts b
	if sc.Len() != 2 {
		t.Fatalf("len=%d, want 2", sc.Len())
	}
	st := sc.Stats()
	if st.Evictions != 1 {
		t.Fatalf("evictions=%d, want 1", st.Evictions)
	}
	sc.get(a, func() (*Circuit, error) {
		t.Fatal("a was evicted; expected b (the LRU) to go")
		return nil, nil
	})
	sc.get(c, func() (*Circuit, error) {
		t.Fatal("c was evicted; expected b (the LRU) to go")
		return nil, nil
	})
	recompiled := false
	sc.get(b, func() (*Circuit, error) {
		recompiled = true
		return &Circuit{}, nil
	})
	if !recompiled {
		t.Fatal("b survived eviction")
	}
}

func TestCacheErrorNotCached(t *testing.T) {
	sc := NewStripCache(4)
	key := testKey("err", 1)
	boom := errors.New("boom")
	if _, err := sc.get(key, func() (*Circuit, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("want boom, got %v", err)
	}
	if sc.Len() != 0 {
		t.Fatal("error result was cached")
	}
	// Next lookup compiles again (and can succeed).
	c, err := sc.get(key, func() (*Circuit, error) { return &Circuit{}, nil })
	if err != nil || c == nil {
		t.Fatalf("retry after error: %v %v", c, err)
	}
}

// TestCachePanicEndsFlight panics inside a compile with a joiner parked on
// it: the panic reaches the compiling caller, the joiner gets an error,
// and the next lookup compiles afresh. A flight left open hangs its
// joiners, so every wait has a timeout.
func TestCachePanicEndsFlight(t *testing.T) {
	sc := NewStripCache(4)
	key := testKey("boom", 1)
	within := func(what string, ch <-chan any) any {
		t.Helper()
		select {
		case v := <-ch:
			return v
		case <-time.After(10 * time.Second):
			t.Fatalf("%s: still waiting after 10s", what)
			return nil
		}
	}

	gate := make(chan struct{})
	panicked := make(chan any, 1)
	go func() {
		defer func() { panicked <- recover() }()
		sc.get(key, func() (*Circuit, error) {
			<-gate
			panic("boom")
		})
	}()
	for sc.Stats().Misses == 0 {
		runtime.Gosched()
	}
	joined := make(chan any, 1)
	go func() {
		_, err := sc.get(key, func() (*Circuit, error) {
			t.Error("a joiner compiled")
			return nil, nil
		})
		joined <- err
	}()
	for sc.Stats().Dedups == 0 {
		runtime.Gosched()
	}
	close(gate)

	if r := within("the compiling caller", panicked); r != "boom" {
		t.Fatalf("compiling caller recovered %v, want the compile's panic", r)
	}
	if err, _ := within("the joiner", joined).(error); !errors.Is(err, errPanicked) {
		t.Fatalf("joiner got %v, want errPanicked", err)
	}
	if st := sc.Stats(); st.InFlight != 0 || st.Size != 0 {
		t.Fatalf("after the panic: %d in flight, %d cached", st.InFlight, st.Size)
	}
	want := &Circuit{Name: "boom"}
	again := make(chan any, 1)
	go func() {
		c, _ := sc.get(key, func() (*Circuit, error) { return want, nil })
		again <- c
	}()
	if c := within("the next lookup", again); c != want {
		t.Fatalf("next lookup returned %v, want a fresh compile", c)
	}
	if st := sc.Stats(); st.Misses != 2 {
		t.Fatalf("misses=%d, want 2: the next lookup did not compile", st.Misses)
	}
}

func TestCacheKeyIncludesAllInputs(t *testing.T) {
	sc := NewStripCache(0) // 0 => default capacity
	if sc.Stats().Capacity != DefaultCacheCapacity {
		t.Fatalf("capacity=%d, want default %d", sc.Stats().Capacity, DefaultCacheCapacity)
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
		if c.Routed.Tracks != in.tracks {
			t.Fatalf("compiled at %d tracks, routed at %d", in.tracks, c.Routed.Tracks)
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
