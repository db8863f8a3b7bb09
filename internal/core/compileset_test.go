package core

import (
	"bytes"
	"cmp"
	"slices"
	"sync"
	"testing"

	"repro/internal/compile"
	"repro/internal/netlist"
	"repro/internal/sim"
)

// artifact is a strip compile as comparable values: everything a Circuit
// holds besides its source netlist. That is the bitstream's bytes, the
// critical path and total hop count among them, the clock period, and
// every number the stages reported. A sink's own hop count stays in the
// flow that routed it; the compile tests compare those.
type artifact struct {
	bs         string
	clock      sim.Time
	seq        bool
	depth, wl  int
	conns      int
	tracks     int
	maxUse     int
	iterations int
	moves      int
	pops       int
}

func artifactOf(t testing.TB, c *compile.Circuit) artifact {
	t.Helper()
	var buf bytes.Buffer
	if err := c.BS.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return artifact{bs: buf.String(), clock: c.ClockPeriod, seq: c.Sequential,
		depth: c.Depth, wl: c.Wirelength, conns: c.Conns, tracks: c.Tracks, maxUse: c.MaxUse, iterations: c.Iterations,
		moves: c.Moves, pops: c.Pops}
}

func lookupAll(names ...string) []*netlist.Netlist {
	nls := make([]*netlist.Netlist, len(names))
	for i, n := range names {
		nls[i] = netlist.MustLookup(n)
	}
	return nls
}

// TestCompileSetByIndex holds CompileSet's fanned-out compiles to the seed
// rule, by index: circuit i of the set is circuit i's strip compile at
// Seed+i, whichever compile finished first.
func TestCompileSetByIndex(t *testing.T) {
	opt := DefaultOptions()
	nls := lookupAll("alu8", "adder8", "counter8", "crc8", "mul4")
	circs, err := CompileSet(nil, opt, nls)
	if err != nil {
		t.Fatal(err)
	}
	for i, nl := range nls {
		want, err := compile.CompileStrip(nl, opt.Geometry.Rows, opt.Geometry.TracksPerChannel,
			compile.Options{Seed: opt.Seed + uint64(i), Timing: &opt.Timing})
		if err != nil {
			t.Fatal(err)
		}
		if circs[i].Name != nl.Name || artifactOf(t, circs[i]) != artifactOf(t, want) {
			t.Errorf("circuit %d: CompileSet returned %s, not %s compiled at seed %d", i, circs[i].Name, nl.Name, opt.Seed+uint64(i))
		}
	}
}

// TestCompileSetFirstErrorInSetOrder fails two circuits of a set — at one
// track per channel, circuits 1 and 3 do not route and 0 and 2 do — and
// requires circuit 1's error, however the compiles interleave.
func TestCompileSetFirstErrorInSetOrder(t *testing.T) {
	opt := DefaultOptions()
	opt.Geometry.TracksPerChannel = 1
	nls := lookupAll("gray8", "seqdet1011", "shreg16", "crc8")
	rows, tracks := opt.Geometry.Rows, opt.Geometry.TracksPerChannel
	for i, nl := range nls {
		_, err := compile.CompileStrip(nl, rows, tracks, compile.Options{Seed: opt.Seed + uint64(i), Timing: &opt.Timing})
		if fails := i%2 == 1; (err != nil) != fails {
			t.Fatalf("circuit %d (%s) at one track: error %v, want failing %v", i, nl.Name, err, fails)
		}
	}
	_, want := compile.CompileStrip(nls[1], rows, tracks, compile.Options{Seed: opt.Seed + 1, Timing: &opt.Timing})
	for run := 0; run < 5; run++ {
		circs, err := CompileSet(nil, opt, nls)
		if err == nil || circs != nil {
			t.Fatalf("run %d: CompileSet returned %v, %v; want no circuits and an error", run, circs, err)
		}
		if err.Error() != want.Error() {
			t.Fatalf("run %d: CompileSet returned %q, want circuit 1's %q", run, err, want)
		}
	}
}

// TestCompileSetHitsAllocateOnlyTheResult holds a set the cache holds
// whole to what it allocated before misses fanned out: the result slice,
// and no goroutine or error table.
func TestCompileSetHitsAllocateOnlyTheResult(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	cache := compile.NewStripCache(0)
	opt := DefaultOptions()
	nls := lookupAll("alu8", "adder8", "counter8", "crc8")
	if _, err := CompileSet(cache, opt, nls); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() { CompileSet(cache, opt, nls) }); n > 1 {
		t.Fatalf("an all-hit CompileSet allocates %v objects, budget 1", n)
	}
	if st := cache.Stats(); st.Misses != int64(len(nls)) || st.Hits != 101*int64(len(nls)) {
		t.Fatalf("cache counted %d misses, %d hits; want %d and %d", st.Misses, st.Hits, len(nls), 101*len(nls))
	}
}

// TestCompileSetConcurrentMatchesFresh runs CompileSet from many
// goroutines over one shared cache — overlapping sets at two seeds, so
// compiles run in parallel, join each other's flights and hit — and holds
// every result to the set's circuits compiled one by one, uncached. It
// checks the results again after a set of larger circuits has gone
// through the flows: a result shares nothing with the flow that compiled
// it.
func TestCompileSetConcurrentMatchesFresh(t *testing.T) {
	sets := [][]*netlist.Netlist{
		lookupAll("alu8", "adder8", "counter8", "crc8"),
		lookupAll("mul4", "alu8", "cmp8", "gray8"),
		lookupAll("adder16", "sub8", "alu8", "parity16"),
	}
	const seeds = 2
	optAt := func(seed int) Options {
		opt := DefaultOptions()
		opt.Seed = uint64(1 + seed)
		return opt
	}
	want := make([][]artifact, len(sets)*seeds)
	for k := range want {
		opt := optAt(k / len(sets))
		for i, nl := range sets[k%len(sets)] {
			c, err := compile.CompileStrip(nl, opt.Geometry.Rows, opt.Geometry.TracksPerChannel, stripOptions(&opt, i))
			if err != nil {
				t.Fatal(err)
			}
			want[k] = append(want[k], artifactOf(t, c))
		}
	}
	cache := compile.NewStripCache(0)
	const runs = 12
	got := make([][]*compile.Circuit, runs)
	errs := make([]error, runs)
	var wg sync.WaitGroup
	for g := 0; g < runs; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			k := g % len(want)
			got[g], errs[g] = CompileSet(cache, optAt(k/len(sets)), sets[k%len(sets)])
		}(g)
	}
	wg.Wait()
	check := func(when string) {
		for g, circs := range got {
			k := g % len(want)
			if errs[g] != nil {
				t.Fatal(errs[g])
			}
			for i, c := range circs {
				if artifactOf(t, c) != want[k][i] {
					t.Errorf("%s: set %d at seed %d, circuit %d: a concurrent CompileSet differs from the circuit compiled alone",
						when, k%len(sets), 1+k/len(sets), i)
				}
			}
		}
	}
	check("as returned")
	var big []*netlist.Netlist
	for range compile.Flows() {
		big = append(big, lookupAll("mul8", "div8")...)
	}
	if _, err := CompileSet(nil, optAt(0), big); err != nil {
		t.Fatal(err)
	}
	check("after larger compiles")
}

// BenchmarkCompileSetCold compiles, uncached, the four largest registry
// circuits whose strips fit the default board: one after another
// (serial), and as one set through CompileSet (fanout), whose compiles
// run in parallel up to the number of compile flows.
func BenchmarkCompileSetCold(b *testing.B) {
	opt := DefaultOptions()
	rows, tracks := opt.Geometry.Rows, opt.Geometry.TracksPerChannel
	type sized struct {
		nl    *netlist.Netlist
		cells int
	}
	var fit []sized
	for name := range netlist.Registry() {
		nl := netlist.MustLookup(name)
		c, err := compile.CompileStrip(nl, rows, tracks, compile.Options{Seed: opt.Seed, Timing: &opt.Timing})
		if err != nil {
			b.Fatal(err)
		}
		if w, _ := c.Footprint(); w <= opt.Geometry.Cols {
			fit = append(fit, sized{nl, c.Cells()})
		}
	}
	slices.SortFunc(fit, func(x, y sized) int {
		if x.cells != y.cells {
			return y.cells - x.cells
		}
		return cmp.Compare(x.nl.Name, y.nl.Name)
	})
	nls := make([]*netlist.Netlist, 4)
	for i := range nls {
		nls[i] = fit[i].nl
	}
	b.Run("serial", func(b *testing.B) {
		b.ReportAllocs()
		for n := 0; n < b.N; n++ {
			for i, nl := range nls {
				if _, err := compile.CompileStrip(nl, rows, tracks, stripOptions(&opt, i)); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("fanout", func(b *testing.B) {
		b.ReportAllocs()
		for n := 0; n < b.N; n++ {
			if _, err := CompileSet(nil, opt, nls); err != nil {
				b.Fatal(err)
			}
		}
	})
}
