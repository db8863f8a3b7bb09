package flat_test

import (
	"errors"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/flat"
)

// one weighs every value 1, so a memo's bound counts its entries.
func one(*int) int { return 1 }

// notBuilt returns a build that fails the test if it runs.
func notBuilt(t *testing.T, what string) func() (*int, error) {
	return func() (*int, error) {
		t.Errorf("%s was built again", what)
		return new(int), nil
	}
}

// within waits on ch for at most 10 s: a flight left open hangs its
// waiters, so every wait on one has a timeout.
func within(t *testing.T, what string, ch <-chan any) any {
	t.Helper()
	select {
	case v := <-ch:
		return v
	case <-time.After(10 * time.Second):
		t.Fatalf("%s: still waiting after 10s", what)
		return nil
	}
}

// TestMemoSingleflight asks for one key from many goroutines at once:
// one builds, the others wait for its value, and a later lookup is a
// plain hit. (`make race` runs this 200 times.)
func TestMemoSingleflight(t *testing.T) {
	m := flat.NewMemo[string](16, one)
	const waiters = 8
	gate := make(chan struct{})
	var builds int
	var wg sync.WaitGroup
	want := new(int)
	for range waiters {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err := m.Get("sf", func() (*int, error) {
				builds++ // inside the flight: only one goroutine may get here
				<-gate
				return want, nil
			})
			if err != nil || v != want {
				t.Errorf("Get: %v %v", v, err)
			}
		}()
	}
	// Wait until every goroutine has either claimed the flight or parked
	// on it, then release the one builder.
	for s := m.Stats(); s.Misses+s.Dedups < waiters; s = m.Stats() {
		runtime.Gosched()
	}
	close(gate)
	wg.Wait()
	s := m.Stats()
	if builds != 1 {
		t.Fatalf("built %d times, want 1", builds)
	}
	if s.Misses != 1 || s.Dedups != waiters-1 || s.InFlight != 0 {
		t.Fatalf("misses=%d dedups=%d inflight=%d, want 1, %d and 0", s.Misses, s.Dedups, s.InFlight, waiters-1)
	}
	if _, err := m.Get("sf", notBuilt(t, "a held key")); err != nil {
		t.Fatal(err)
	}
	if s := m.Stats(); s.Hits != 1 {
		t.Fatalf("hits=%d, want 1", s.Hits)
	}
}

// TestMemoLRUEviction fills a memo of two, touches the older entry and
// adds a third: the untouched one goes.
func TestMemoLRUEviction(t *testing.T) {
	m := flat.NewMemo[string](2, one)
	build := func() (*int, error) { return new(int), nil }
	m.Get("a", build)
	m.Get("b", build)
	m.Get("a", build) // touch a: b is now the least recently used
	m.Get("c", build) // evicts b
	if s := m.Stats(); s.Entries != 2 || s.Evictions != 1 {
		t.Fatalf("%d entries, %d evictions, want 2 and 1", s.Entries, s.Evictions)
	}
	m.Get("a", notBuilt(t, "a, not the least recently used,"))
	m.Get("c", notBuilt(t, "c, the newest,"))
	rebuilt := false
	m.Get("b", func() (*int, error) { rebuilt = true; return new(int), nil })
	if !rebuilt {
		t.Fatal("b, the least recently used, survived eviction")
	}
}

// TestMemoEvictsByWeight holds values of mixed weights under a bound of
// 10: a heavy value drops as many of the least recently used as it
// needs room for, and no more.
func TestMemoEvictsByWeight(t *testing.T) {
	m := flat.NewMemo[int](10, func(v *int) int { return *v })
	w := func(n int) func() (*int, error) { return func() (*int, error) { return &n, nil } }
	for k, n := range []int{3, 4, 2} { // keys 0, 1, 2: weight 9
		m.Get(k, w(n))
	}
	m.Get(0, w(3)) // touch 0: 1 is now the least recently used, then 2
	m.Get(3, w(6)) // 15 > 10: drops 1 (weight 4), then 2 (2); 9 held
	if s := m.Stats(); s.Entries != 2 || s.Weight != 9 || s.Evictions != 2 {
		t.Fatalf("%d entries of weight %d after %d evictions, want 2 of 9 after 2", s.Entries, s.Weight, s.Evictions)
	}
	for _, k := range []int{0, 3} {
		if _, ok := m.Cached(k); !ok {
			t.Errorf("key %d evicted; it was used after 1 and 2", k)
		}
	}
	for _, k := range []int{1, 2} {
		if _, ok := m.Cached(k); ok {
			t.Errorf("key %d held; it was among the least recently used", k)
		}
	}
}

// TestMemoKeepsNothingHeavierThanBound builds a value heavier than the
// whole bound: it is returned, not kept, and nothing held is evicted.
func TestMemoKeepsNothingHeavierThanBound(t *testing.T) {
	m := flat.NewMemo[int](10, func(v *int) int { return *v })
	small, heavy := 4, 11
	m.Get(0, func() (*int, error) { return &small, nil })
	v, err := m.Get(1, func() (*int, error) { return &heavy, nil })
	if err != nil || v != &heavy {
		t.Fatalf("Get of the heavy value: %v %v", v, err)
	}
	if s := m.Stats(); s.Entries != 1 || s.Weight != 4 || s.Evictions != 0 {
		t.Fatalf("%d entries of weight %d after %d evictions, want the light one alone, none evicted", s.Entries, s.Weight, s.Evictions)
	}
	if _, ok := m.Cached(1); ok {
		t.Fatal("a value heavier than the bound was kept")
	}
}

// TestMemoErrorNotKept fails a build: the error goes to the caller and
// is not kept, so the next lookup builds again and can succeed.
func TestMemoErrorNotKept(t *testing.T) {
	m := flat.NewMemo[string](4, one)
	boom := errors.New("boom")
	if _, err := m.Get("err", func() (*int, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("want boom, got %v", err)
	}
	if s := m.Stats(); s.Entries != 0 {
		t.Fatal("a failed build was kept")
	}
	if v, err := m.Get("err", func() (*int, error) { return new(int), nil }); err != nil || v == nil {
		t.Fatalf("retry after an error: %v %v", v, err)
	}
}

// TestMemoPanicEndsFlight panics inside a build with a waiter parked on
// it: the panic reaches the building caller, the waiter gets an error,
// and the next lookup builds afresh.
func TestMemoPanicEndsFlight(t *testing.T) {
	m := flat.NewMemo[string](4, one)
	gate := make(chan struct{})
	panicked := make(chan any, 1)
	go func() {
		defer func() { panicked <- recover() }()
		m.Get("boom", func() (*int, error) {
			<-gate
			panic("boom")
		})
	}()
	for m.Stats().Misses == 0 {
		runtime.Gosched()
	}
	joined := make(chan any, 1)
	go func() {
		_, err := m.Get("boom", notBuilt(t, "a key in flight"))
		joined <- err
	}()
	for m.Stats().Dedups == 0 {
		runtime.Gosched()
	}
	close(gate)
	if r := within(t, "the building caller", panicked); r != "boom" {
		t.Fatalf("building caller recovered %v, want the build's panic", r)
	}
	if err, _ := within(t, "the waiter", joined).(error); !errors.Is(err, flat.ErrPanicked) {
		t.Fatalf("waiter got %v, want ErrPanicked", err)
	}
	if s := m.Stats(); s.InFlight != 0 || s.Entries != 0 {
		t.Fatalf("after the panic: %d in flight, %d held", s.InFlight, s.Entries)
	}
	want := new(int)
	again := make(chan any, 1)
	go func() {
		v, _ := m.Get("boom", func() (*int, error) { return want, nil })
		again <- v
	}()
	if v := within(t, "the next lookup", again); v != want {
		t.Fatalf("next lookup returned %v, want a fresh build", v)
	}
	if s := m.Stats(); s.Misses != 2 {
		t.Fatalf("misses=%d, want 2: the next lookup did not build", s.Misses)
	}
}

// TestFreeListLIFO gives three values under one key and one under
// another: each key's are taken back last given first, then none.
func TestFreeListLIFO(t *testing.T) {
	f := flat.NewFreeList[string, *int](0)
	a, b, c, d := new(int), new(int), new(int), new(int)
	f.Give("x", a)
	f.Give("x", b)
	f.Give("y", d)
	f.Give("x", c)
	var got []*int
	for v := f.Take("x"); v != nil; v = f.Take("x") {
		got = append(got, v)
	}
	if !slices.Equal(got, []*int{c, b, a}) {
		t.Fatalf("took %v, want %v: the last given first", got, []*int{c, b, a})
	}
	if v := f.Take("y"); v != d {
		t.Fatalf("key y took %v, want its own value %v", v, d)
	}
}

// TestFreeListBound gives more values than the bound under one key: the
// list keeps the first bound of them, and another key has its own room.
func TestFreeListBound(t *testing.T) {
	f := flat.NewFreeList[string, *int](2)
	vs := []*int{new(int), new(int), new(int)}
	for _, v := range vs {
		f.Give("x", v)
	}
	f.Give("y", vs[2])
	if v := f.Take("y"); v != vs[2] {
		t.Fatalf("key y took %v, want %v", v, vs[2])
	}
	if got := []*int{f.Take("x"), f.Take("x"), f.Take("x")}; !slices.Equal(got, []*int{vs[1], vs[0], nil}) {
		t.Fatalf("took %v, want %v: two kept, the third dropped", got, []*int{vs[1], vs[0], nil})
	}
}

// TestFreeListScribblesOnGive sets the hook: a value given back is
// overwritten before anyone can take it.
func TestFreeListScribblesOnGive(t *testing.T) {
	f := flat.NewFreeList[struct{}, *int](0)
	f.Scribble = func(v *int) { *v = -1 }
	v := new(int)
	*v = 7
	f.Give(struct{}{}, v)
	if *v != -1 {
		t.Fatalf("a value given back reads %d, want the scribble's -1", *v)
	}
	if got := f.Take(struct{}{}); got != v {
		t.Fatalf("took %v, want the value given", got)
	}
}

// TestFreeListConcurrent has goroutines take a value, hold it and give
// it back, over and over: no value is ever held by two at once, and the
// list ends holding at most one a goroutine. (`make race` runs this 200
// times.)
func TestFreeListConcurrent(t *testing.T) {
	type val struct{ holders atomic.Int32 }
	f := flat.NewFreeList[struct{}, *val](0)
	const workers, rounds = 4, 200
	var made atomic.Int32
	var wg sync.WaitGroup
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range rounds {
				v := f.Take(struct{}{})
				if v == nil {
					v = new(val)
					made.Add(1)
				}
				if n := v.holders.Add(1); n != 1 {
					t.Errorf("a value held by %d at once", n)
				}
				runtime.Gosched()
				v.holders.Add(-1)
				f.Give(struct{}{}, v)
			}
		}()
	}
	wg.Wait()
	n := 0
	for f.Take(struct{}{}) != nil {
		n++
	}
	if n != int(made.Load()) || n > workers {
		t.Errorf("%d values free of %d made, want all of at most %d", n, made.Load(), workers)
	}
}
