// Package repro's root benchmarks regenerate every table (T1-T5) and
// figure (F1-F9) of the evaluation plan through the testing.B interface:
//
//	go test -bench=. -benchmem
//
// Each iteration runs the experiment's quick configuration; the full
// sweeps are produced by cmd/vfpgabench. Custom metrics report the
// simulated virtual time per table so regressions in the *model* (not
// just in the Go code) are visible.
package repro

import (
	"runtime"
	"strconv"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/bitstream"
	"repro/internal/compile"
	"repro/internal/fabric"
	"repro/internal/netlist"
	"repro/internal/place"
	"repro/internal/route"
	"repro/internal/techmap"
	"repro/internal/trace"
)

// benchExperiment runs one harness experiment per iteration.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	e, ok := bench.Find(id)
	if !ok {
		b.Fatalf("experiment %s not registered", id)
	}
	cfg := bench.Config{Seed: 1, Quick: true}
	var rows int
	var virtualMs float64
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tbl, err := e.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		rows = len(tbl.Rows)
		virtualMs = sumMakespans(tbl)
	}
	b.ReportMetric(float64(rows), "rows")
	if virtualMs > 0 {
		b.ReportMetric(virtualMs, "virtual_ms")
	}
}

// sumMakespans totals the makespan column (when present) so that changes
// to the simulated model — not just the Go implementation — show up in
// benchmark output.
func sumMakespans(tbl *trace.Table) float64 {
	col := -1
	for i, c := range tbl.Columns {
		if strings.Contains(c, "makespan") {
			col = i
			break
		}
	}
	if col < 0 {
		return 0
	}
	total := 0.0
	for _, row := range tbl.Rows {
		if v, err := strconv.ParseFloat(row[col], 64); err == nil {
			total += v
		}
	}
	return total
}

// pinRange binds circuit ports to consecutive device pins from 0.
func pinRange(nIn, nOut int) *bitstream.PinBinding {
	b := &bitstream.PinBinding{}
	p := 0
	for i := 0; i < nIn; i++ {
		b.In = append(b.In, p)
		p++
	}
	for i := 0; i < nOut; i++ {
		b.Out = append(b.Out, p)
		p++
	}
	return b
}

func BenchmarkT1DynamicLoadingOverhead(b *testing.B) { benchExperiment(b, "T1") }
func BenchmarkT2StatePreemption(b *testing.B)        { benchExperiment(b, "T2") }
func BenchmarkT3Partitioning(b *testing.B)           { benchExperiment(b, "T3") }
func BenchmarkT4Overlay(b *testing.B)                { benchExperiment(b, "T4") }
func BenchmarkT5IOMux(b *testing.B)                  { benchExperiment(b, "T5") }
func BenchmarkF1VirtualCapacity(b *testing.B)        { benchExperiment(b, "F1") }
func BenchmarkF2SchedulingModes(b *testing.B)        { benchExperiment(b, "F2") }
func BenchmarkF3MergedVsDynamic(b *testing.B)        { benchExperiment(b, "F3") }
func BenchmarkF4Fragmentation(b *testing.B)          { benchExperiment(b, "F4") }
func BenchmarkF5Pagination(b *testing.B)             { benchExperiment(b, "F5") }
func BenchmarkF6Segmentation(b *testing.B)           { benchExperiment(b, "F6") }
func BenchmarkF7Applications(b *testing.B)           { benchExperiment(b, "F7") }
func BenchmarkF8MultiBoard(b *testing.B)             { benchExperiment(b, "F8") }
func BenchmarkF9AmorphousRegions(b *testing.B)       { benchExperiment(b, "F9") }
func BenchmarkF10PlacementBakeoff(b *testing.B)      { benchExperiment(b, "F10") }
func BenchmarkA1OptimizerAblation(b *testing.B)      { benchExperiment(b, "A1") }

// --- CAD-flow micro-benchmarks: the substrate costs behind every table ---

func BenchmarkFlowTechmapMul8(b *testing.B) {
	nl := netlist.Multiplier(8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := techmap.Map(nl); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFlowPlaceALU8(b *testing.B) {
	m, err := techmap.Map(netlist.ALU(8))
	if err != nil {
		b.Fatal(err)
	}
	w, h := place.Shape(m.NumCells())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := place.Place(m, w, h, place.Options{Seed: uint64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFlowRouteALU8(b *testing.B) {
	m, err := techmap.Map(netlist.ALU(8))
	if err != nil {
		b.Fatal(err)
	}
	w, h := place.Shape(m.NumCells())
	p, err := place.Place(m, w, h, place.Options{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := route.Route(p, 12, route.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFlowCompileStripCounter16(b *testing.B) {
	nl := netlist.Counter(16)
	tm := fabric.DefaultTiming()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := compile.CompileStrip(nl, 16, 12, compile.Options{Seed: uint64(i), Timing: &tm}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCompileStrip measures the concurrent compile cache's hot
// path: after the first iteration every lookup is a pure hit, so ns/op
// and allocs/op reflect cache overhead, not compilation.
func BenchmarkCompileStrip(b *testing.B) {
	nl := netlist.Counter(16)
	tm := fabric.DefaultTiming()
	sc := compile.NewStripCache(compile.DefaultCacheCapacity)
	opt := compile.Options{Seed: 1, Timing: &tm}
	if _, err := sc.CompileStrip(nl, 16, 12, opt); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sc.CompileStrip(nl, 16, 12, opt); err != nil {
			b.Fatal(err)
		}
	}
	st := sc.Stats()
	b.ReportMetric(st.HitRate(), "hit_rate")
}

// BenchmarkHarnessQuick runs the whole quick harness through the
// parallel runner once per iteration — the end-to-end number the -jobs
// worker pool is meant to improve.
func BenchmarkHarnessQuick(b *testing.B) {
	cfg := bench.Config{Seed: 1, Quick: true, Jobs: runtime.NumCPU()}
	exps := bench.All()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, o := range bench.Run(cfg, exps) {
			if o.Err != nil {
				b.Fatalf("%s: %v", o.Exp.ID, o.Err)
			}
		}
	}
}

func BenchmarkFabricStepCounter16(b *testing.B) {
	tm := fabric.DefaultTiming()
	c, err := compile.CompileStrip(netlist.Counter(16), 16, 12, compile.Options{Seed: 1, Timing: &tm})
	if err != nil {
		b.Fatal(err)
	}
	dev := fabric.NewDevice(fabric.Geometry{Cols: 8, Rows: 16, TracksPerChannel: 12, PinsPerSide: 16})
	binding := pinRange(c.BS.NumIn, c.BS.NumOut)
	if _, _, err := c.BS.Apply(dev, 0, 0, binding); err != nil {
		b.Fatal(err)
	}
	dev.SetPin(binding.In[0], true)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dev.Step(); err != nil {
			b.Fatal(err)
		}
	}
}

// TestBenchmarksSmoke keeps `go test ./...` exercising the root wrappers
// without -bench.
func TestBenchmarksSmoke(t *testing.T) {
	for _, id := range []string{"T2", "F3"} {
		e, ok := bench.Find(id)
		if !ok {
			t.Fatalf("missing %s", id)
		}
		tbl, err := e.Run(bench.Config{Seed: 1, Quick: true})
		if err != nil {
			t.Fatal(err)
		}
		s := tbl.String()
		if !strings.Contains(s, "== "+id) {
			t.Fatalf("table header missing:\n%s", s)
		}
	}
}
