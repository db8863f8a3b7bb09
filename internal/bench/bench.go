// Package bench is the experiment harness: one runner per table (T1-T5)
// and figure (F1-F9) of the reproduction's evaluation plan (see DESIGN.md
// §4 — the paper itself publishes no quantitative results, so each runner
// operationalizes one of its qualitative claims).
//
// Runners are deterministic: the same Config produces byte-identical
// tables. Quick mode shrinks the sweeps for use under `go test -bench`.
package bench

import (
	"fmt"
	"strconv"
	"sync"
	"time"

	"repro/internal/baseline"
	"repro/internal/compile"
	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/hostos"
	"repro/internal/netlist"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Config parameterizes a harness run.
type Config struct {
	Seed  uint64
	Quick bool // reduced sweeps (used by go test benchmarks)
	// Jobs bounds the worker fan-out: Run fans whole experiments and each
	// experiment fans its independent sweep points across up to Jobs
	// goroutines. 0 or 1 selects the serial path. Any value produces
	// byte-identical tables: every sweep point runs on a stack of its own
	// — new, or a dead one from the free list renewed to the state a new
	// one has — with its own seeded RNGs, and results are reassembled in
	// presentation order.
	Jobs int
	// Now supplies the wall clock used only for Outcome.Wall timing.
	// The bench package itself never reads the real clock (its tables
	// must be deterministic), so callers that want wall times inject one
	// (cmd/vfpgabench passes time.Now); nil leaves Wall zero.
	Now func() time.Time
}

// Experiment couples an id with its runner; the table carries its title.
type Experiment struct {
	ID  string
	Run func(Config) (*trace.Table, error)
}

// All returns every experiment in presentation order.
func All() []Experiment {
	return []Experiment{
		{"T1", T1DynamicLoadingOverhead},
		{"T2", T2StatePreemption},
		{"T3", T3Partitioning},
		{"T4", T4Overlay},
		{"T5", T5IOMux},
		{"F1", F1VirtualCapacity},
		{"F2", F2SchedulingModes},
		{"F3", F3MergedVsDynamic},
		{"F4", F4Fragmentation},
		{"F5", F5Pagination},
		{"F6", F6Segmentation},
		{"F7", F7Applications},
		{"F8", F8MultiBoard},
		{"F9", F9AmorphousRegions},
		{"F10", F10PlacementBakeoff},
		{"A1", A1OptimizerAblation},
	}
}

// Find returns the experiment with the given id.
func Find(id string) (Experiment, bool) {
	for _, e := range All() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// benchGeometry is the default experiment device: 16 rows keeps strip
// compilation fast while leaving room for a dozen partitions.
func benchGeometry() fabric.Geometry {
	return fabric.Geometry{Cols: 32, Rows: 16, TracksPerChannel: 12, PinsPerSide: 48}
}

// --- circuit compilation cache ---
// Strip compilation (map+place+route) is deterministic and dominates
// experiment cost, so circuits are shared process-wide through the
// concurrent compile service in internal/compile: singleflight
// deduplication keeps parallel workers from compiling the same key twice,
// and the LRU bound keeps a long-lived process from growing forever. The
// cache key includes the *effective* seed (opt.Seed plus the circuit's
// position in its list), so a cached circuit is a pure function of the
// request — lookups are order-independent, which is what makes sharing
// the cache between concurrently running experiments deterministic.
var stripCache = compile.NewStripCache(compile.DefaultCacheCapacity)

// CacheStats reports the shared compile-cache counters (hits, misses,
// singleflight joins, evictions) accumulated by this process.
func CacheStats() compile.CacheStats { return stripCache.Stats() }

// compileSet compiles the circuits through the shared cache, in order —
// all a sizing probe needs: widths and cell counts come off the result
// without a device being built.
func compileSet(opt core.Options, circuits []*netlist.Netlist) ([]*compile.Circuit, error) {
	circs, err := core.CompileSet(stripCache, opt, circuits)
	if err != nil {
		return nil, fmt.Errorf("bench: %w", err)
	}
	return circs, nil
}

// mul6 is the 6x6 multiplier F10's class pool and F4's churn draw from,
// built once per process as netlist.MustLookup builds a library circuit:
// it is not one, and it does not depend on the seed.
var mul6 = sync.OnceValue(func() *netlist.Netlist { return netlist.Multiplier(6) })

// footprint sizes compiled strips for a device: their widths summed (all
// resident side by side), the widest (one at a time) and their cells.
func footprint(circs []*compile.Circuit) (sumW, maxW, cells int) {
	for _, c := range circs {
		sumW += c.BS.W
		maxW = max(maxW, c.BS.W)
		cells += c.Cells()
	}
	return sumW, maxW, cells
}

// --- free list of dead scratch ---
// A sweep point's stack is dead once its numbers are read, and the next
// point on the same device geometry and engine count builds its stack on
// that one's hardware and in its memory (baseline.NewStack's used), as a
// warm board builds a job's on the last job's. stacks keeps the dead
// stacks by that shape for every experiment of the process, and
// replays keeps F10's dead replay states (colSim) the same way. Neither
// has a bound of its own: it holds no more of a shape than were ever
// live at once, which the worker fan-out (Config.Jobs) bounds.
var stacks = newFreeList(func(st *baseline.Stack) stackKey {
	return keyOf(st.Engines[0].Dev.Geometry(), len(st.Engines))
})

// stackKey is the shape baseline.NewStack renews a stack to: the device
// geometry and the engine count.
type stackKey struct {
	geom    fabric.Geometry
	engines int
}

func keyOf(geom fabric.Geometry, engines int) stackKey {
	return stackKey{geom: geom, engines: engines}
}

// freeList is a mutex-guarded stack of dead values per key, the shape
// its shape function reads off a value; a value is a pointer, so take's
// zero result means none is free.
type freeList[K comparable, V any] struct {
	mu    sync.Mutex
	free  map[K][]V
	shape func(V) K
	// scribble, when set, overwrites what give is handed before it goes
	// on the list: the package's tests set it, so a number read off a
	// value after it is given back is garbage in a serial run.
	scribble func(V)
}

func newFreeList[K comparable, V any](shape func(V) K) *freeList[K, V] {
	return &freeList[K, V]{free: map[K][]V{}, shape: shape}
}

// take removes a dead value of key k from the list and returns it, or
// the zero value when none is free.
func (f *freeList[K, V]) take(k K) V {
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

// give puts v, whose run's numbers are read, on the list under its
// shape. It is dead from here on: nothing may read it again.
func (f *freeList[K, V]) give(v V) {
	f.mu.Lock()
	defer f.mu.Unlock()
	k := f.shape(v)
	if f.scribble != nil {
		f.scribble(v)
	}
	f.free[k] = append(f.free[k], v)
}

// newStack assembles a fault-free stack of the given engine count over
// the set's circuits, compiled through the shared cache, on a dead stack
// of the free list when one of its shape is there. Give it back
// (stacks.give) once its numbers are read.
func newStack(opt core.Options, engines int, osCfg hostos.Config, set *workload.Set, mk baseline.ManagerFunc) (*baseline.Stack, error) {
	circs, err := compileSet(opt, set.Circuits)
	if err != nil {
		return nil, err
	}
	return baseline.NewStack(opt, engines, osCfg, nil, set, circs, mk, stacks.take(keyOf(opt.Geometry, engines)))
}

// runResult summarizes one finished run in values: nothing in it points
// into the stack, which the next run of its shape renews.
type runResult struct {
	Makespan       sim.Time
	MeanTurnaround sim.Time
	MeanWait       sim.Time // ready + blocked
	MeanBlock      sim.Time
	M              core.MetricsSnapshot // the first engine's, at the end of the run
	First          hostos.Task          // the first task spawned, copied
}

// summarize reads the run's result off a stack whose tasks all finished.
func summarize(st *baseline.Stack) runResult {
	tasks := st.OS.Tasks()
	res := runResult{
		Makespan: st.OS.Makespan(),
		M:        st.Engines[0].M.Snapshot(st.K.Now()),
		First:    *tasks[0],
	}
	n := sim.Time(len(tasks))
	for _, t := range tasks {
		res.MeanTurnaround += t.Turnaround() / n
		res.MeanWait += (t.ReadyWait + t.BlockWait) / n
		res.MeanBlock += t.BlockWait / n
	}
	return res
}

// runSet runs the workload to completion on a one-engine stack under the
// given manager, and gives the stack back once the result is read. A
// stack whose run failed is dropped, not given back.
func runSet(opt core.Options, osCfg hostos.Config, set *workload.Set, mk baseline.ManagerFunc) (runResult, error) {
	st, err := newStack(opt, 1, osCfg, set, mk)
	if err != nil {
		return runResult{}, err
	}
	if err := st.Run(set); err != nil {
		return runResult{}, err
	}
	res := summarize(st)
	stacks.give(st)
	return res, nil
}

// The managers experiments run in the daemon's configuration.
var (
	dynamicMgr   = baseline.NewManager("dynamic")
	variableMgr  = baseline.NewManager("partition") // variable best-fit, GC, rotation
	exclusiveMgr = baseline.NewManager("exclusive")
	softwareMgr  = baseline.NewManager("software") // 20x slowdown
	multiMgr     = baseline.NewManager("multi")
	mergedMgr    = baseline.NewManager("merged")
)

// ms renders a sim.Time as milliseconds with 3 decimals, as %.3f does,
// in one allocation.
func ms(t sim.Time) string {
	var buf [32]byte
	return string(strconv.AppendFloat(buf[:0], t.Milliseconds(), 'f', 3, 64))
}
