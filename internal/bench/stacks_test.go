package bench

import (
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/flat"
	"repro/internal/hostos"
)

// Every test of the package runs with the free lists scribbling over
// what they are given back: a number read off a stack or a replay state
// after it goes back then reads garbage in a serial run, not only when a
// rival goroutine happens to renew it first.
func init() {
	stacks.Scribble = func(st *baseline.Stack) {
		for _, t := range st.OS.Tasks() {
			t.Finished, t.ReadyWait, t.BlockWait = -1, -1, -1
		}
	}
	replays.Scribble = func(s *colSim) {
		clear(s.jobs)
		s.scores.Reset()
		s.requeues, s.makespan = -1, -1
	}
}

// emptied returns a new free list scribbling as f does: one with no
// dead values, as at the start of a process.
func emptied[K comparable, V any](f *flat.FreeList[K, V]) *flat.FreeList[K, V] {
	e := flat.NewFreeList[K, V](0)
	e.Scribble = f.Scribble
	return e
}

// count returns how many dead values of key k are free, taking them off
// and giving them back in their order.
func count[K, V comparable](f *flat.FreeList[K, V], k K) int {
	var zero V
	var vs []V
	for v := f.Take(k); v != zero; v = f.Take(k) {
		vs = append(vs, v)
	}
	for i := len(vs) - 1; i >= 0; i-- {
		f.Give(k, vs[i])
	}
	return len(vs)
}

// TestRunOnRenewedStacks regenerates every table at seeds 1–3, serially
// and on four workers, once from an emptied free list and once after
// another seed's pass has left its stacks there: the renewed stacks must
// render the same bytes. (TestExperimentsTables holds seed 1 to the
// tables EXPERIMENTS.md carries.)
func TestRunOnRenewedStacks(t *testing.T) {
	seeds := []uint64{1, 2, 3}
	var serial []string
	for _, jobs := range []int{1, 4} {
		clean := make([]string, len(seeds))
		for i, seed := range seeds {
			stacks = emptied(stacks)
			clean[i] = renderAll(t, Run(Config{Seed: seed, Jobs: jobs}, All()))
		}
		// Each pass now starts on the stacks the pass before it left:
		// seed 1 on seed 3's, seed 2 on seed 1's, seed 3 on seed 2's.
		for i, seed := range seeds {
			if got := renderAll(t, Run(Config{Seed: seed, Jobs: jobs}, All())); got != clean[i] {
				t.Errorf("seed %d, jobs %d: the tables on renewed stacks differ from those on an emptied free list", seed, jobs)
			}
		}
		if serial == nil {
			serial = clean
		} else if !reflect.DeepEqual(clean, serial) {
			t.Errorf("jobs %d renders other tables than jobs 1", jobs)
		}
	}
}

// TestStackFreeListConcurrent runs one sweep point over and over while
// rival goroutines take every free stack of its shape the moment it is
// given back, run another set on it and give it back in turn: each of
// the point's results must equal the first, whichever stacks it ran on.
// A result read off a stack after it is given back, or a stack handed to
// two holders at once, reads a rival's numbers here, and under the race
// detector is a reported race (`make race` runs this 200 times).
func TestStackFreeListConcurrent(t *testing.T) {
	stacks = emptied(stacks)
	opt := defaultOpt(Config{Seed: 1})
	set, other := t3Set(Config{Seed: 1}), f8Set(Config{Seed: 1})
	osCfg := hostos.DefaultConfig()
	want, err := runSet(opt, osCfg, set, variableMgr)
	if err != nil {
		t.Fatal(err)
	}
	otherCircs, err := compileSet(opt, other.Circuits)
	if err != nil {
		t.Fatal(err)
	}
	const rivals = 3
	var done atomic.Bool
	var wg sync.WaitGroup
	errs := make(chan error, rivals)
	for range rivals {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !done.Load() {
				used := stacks.Take(keyOf(opt.Geometry, 1))
				if used == nil {
					runtime.Gosched()
					continue
				}
				st, err := baseline.NewStack(opt, 1, osCfg, nil, other, otherCircs, dynamicMgr, used)
				if err == nil {
					err = st.Run(other)
				}
				if err != nil {
					errs <- err
					return
				}
				giveStack(st)
			}
		}()
	}
	for i := 0; i < 20; i++ {
		got, err := runSet(opt, osCfg, set, variableMgr)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("run %d on a shared free list: %+v, want %+v", i, got, want)
			break
		}
	}
	done.Store(true)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	// At most one stack for the point and one per rival was ever live.
	if n := count(stacks, keyOf(opt.Geometry, 1)); n < 1 || n > 1+rivals {
		t.Errorf("%d stacks of the shape on the free list, want 1 to %d", n, 1+rivals)
	}
}

// TestReplayFreeListConcurrent is TestStackFreeListConcurrent for F10's
// replay states: one policy's replay runs over and over while rival
// goroutines replay another seed and policy on whatever state is given
// back, so each state is taken the moment it returns. Every result must
// equal the first (`make race` runs this 200 times).
func TestReplayFreeListConcurrent(t *testing.T) {
	replays = emptied(replays)
	cfg, err := FleetBakeoffConfig(Config{Seed: 1, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Jobs = 300
	other := cfg
	other.Seed = 2
	want := columnBakeoff(cfg, "packing")
	const rivals = 3
	var done atomic.Bool
	var wg sync.WaitGroup
	for range rivals {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !done.Load() {
				columnBakeoff(other, "random")
			}
		}()
	}
	for i := 0; i < 10; i++ {
		if got := columnBakeoff(cfg, "packing"); got != want {
			t.Errorf("replay %d on a shared free list: %+v, want %+v", i, got, want)
			break
		}
	}
	done.Store(true)
	wg.Wait()
	if n := count(replays, struct{}{}); n < 1 || n > 1+rivals {
		t.Errorf("%d replay states on the free list, want 1 to %d", n, 1+rivals)
	}
}

// TestRunPassByteBudget pins the bytes a whole pass allocates at a seed
// the process has not run, once two passes have filled the compile cache
// with the strips no seed changes and left stacks and replay states on
// the free lists: the harness benchmark's op, on one worker. What is left
// is the seed's compiles, its workloads and bitstreams, and the tables.
// The budget is about 15 % over the reading (682 KiB); a pass that builds
// F10's replay states, F6's netlists and F5's reference strings anew
// reads about 4 980.
func TestRunPassByteBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector defeats escape analysis")
	}
	const budgetKiB = 785
	for seed := uint64(1001); seed <= 1002; seed++ {
		renderAll(t, Run(Config{Seed: seed, Jobs: 1}, All()))
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	outs := Run(Config{Seed: 1003, Jobs: 1}, All())
	runtime.ReadMemStats(&after)
	renderAll(t, outs)
	got := (after.TotalAlloc - before.TotalAlloc) / 1024
	t.Logf("%d KiB a pass at a new seed", got)
	if got > budgetKiB {
		t.Errorf("a pass at a new seed allocates %d KiB, budget %d", got, budgetKiB)
	}
}

// TestRunSetAllocBudget pins what sweep points allocate once the free
// list holds a stack of their shape: the set's compiled circuits are a
// cache hit, and the kernel, engine, manager and host OS are a dead
// stack's, renewed, so what is left is the lookup's circuit list. A pass
// is two points on two device widths, so a free list that mixed shapes
// would build every stack new. The budget sits two above the reading (2
// allocations a pass under variable partitions over T3's mix); a pass
// on stacks built new reads 144.
func TestRunSetAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector defeats escape analysis")
	}
	const budget = 4
	set := t3Set(Config{Seed: 1})
	wide, narrow := defaultOpt(Config{Seed: 1}), defaultOpt(Config{Seed: 1})
	narrow.Geometry.Cols = 24
	osCfg := hostos.DefaultConfig()
	pass := func() {
		for _, opt := range []core.Options{wide, narrow} {
			if _, err := runSet(opt, osCfg, set, variableMgr); err != nil {
				t.Fatal(err)
			}
		}
	}
	pass() // compiles the circuits and leaves a stack of each shape
	got := testing.AllocsPerRun(20, pass)
	t.Logf("%.0f allocations a pass on a warm free list", got)
	if got > budget {
		t.Errorf("a pass on a warm free list allocates %.0f times, budget %d", got, budget)
	}
}
