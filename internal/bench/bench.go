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
	// byte-identical tables: every sweep point builds its own sim.Kernel
	// and seeded RNGs, and results are reassembled in presentation order.
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

// newStack assembles a fault-free stack of the given engine count over
// the set's circuits, compiled through the shared cache.
func newStack(opt core.Options, engines int, osCfg hostos.Config, set *workload.Set, mk baseline.ManagerFunc) (*baseline.Stack, error) {
	circs, err := compileSet(opt, set.Circuits)
	if err != nil {
		return nil, err
	}
	return baseline.NewStack(opt, engines, osCfg, nil, set, circs, mk)
}

// runResult summarizes one finished run.
type runResult struct {
	Makespan       sim.Time
	MeanTurnaround sim.Time
	MeanWait       sim.Time // ready + blocked
	MeanBlock      sim.Time
	Engine         *core.Engine // the first engine
	OS             *hostos.OS
}

// summarize reads the run's result off a stack whose tasks all finished.
func summarize(st *baseline.Stack) runResult {
	res := runResult{Engine: st.Engines[0], OS: st.OS, Makespan: st.OS.Makespan()}
	n := sim.Time(len(st.OS.Tasks()))
	for _, t := range st.OS.Tasks() {
		res.MeanTurnaround += t.Turnaround() / n
		res.MeanWait += (t.ReadyWait + t.BlockWait) / n
		res.MeanBlock += t.BlockWait / n
	}
	return res
}

// runSet runs the workload to completion on a one-engine stack under the
// given manager.
func runSet(opt core.Options, osCfg hostos.Config, set *workload.Set, mk baseline.ManagerFunc) (runResult, error) {
	st, err := newStack(opt, 1, osCfg, set, mk)
	if err != nil {
		return runResult{}, err
	}
	if err := st.Run(set); err != nil {
		return runResult{}, err
	}
	return summarize(st), nil
}

// Managers used across experiments: the by-name ones in the daemon's
// configuration, and partitions under an experiment's own.
var (
	dynamicMgr   = baseline.NewManager("dynamic", nil)
	variableMgr  = baseline.NewManager("partition", nil) // variable best-fit, GC, rotation
	exclusiveMgr = baseline.NewManager("exclusive", nil)
	softwareMgr  = baseline.NewManager("software", nil) // 20x slowdown
)

func partitionMgr(cfg core.PartitionConfig) baseline.ManagerFunc {
	return func(k *sim.Kernel, e []*core.Engine, _ hostos.FPGA) (hostos.FPGA, sim.Time, error) {
		pm, err := core.NewPartitionManager(k, e[0], cfg, nil)
		return pm, 0, err
	}
}

// overlayMgr keeps the named circuits resident and swaps the rest
// through the overlay area.
func overlayMgr(resident []string) baseline.ManagerFunc {
	return func(k *sim.Kernel, e []*core.Engine, _ hostos.FPGA) (hostos.FPGA, sim.Time, error) {
		return core.NewOverlayManager(k, e[0], resident, nil)
	}
}

// ms renders a sim.Time as milliseconds with 3 decimals.
func ms(t sim.Time) string { return fmt.Sprintf("%.3f", t.Milliseconds()) }
