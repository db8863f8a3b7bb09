// Command benchmark is the repo's yardstick: four named workloads run
// against the in-process public APIs of serve, fleet, bench and the CAD
// flow, every output checked, every metric printed by name with its unit.
// BENCHMARK.json at the repo root is its contract; README.md beside this
// file says what each workload and metric is for.
//
//	go run ./benchmark                                  all four workloads, both passes
//	go run ./benchmark -workload cold_node -trace 0     one workload, end-to-end metrics
//	go run ./benchmark -workload cold_node -trace 1     ... its per-layer metrics and trace
//	go run ./benchmark -repeat 10                       steadiness: ten seeds per workload
//	go run ./benchmark -compare a.json b.json           apply BENCHMARK.json's bounds
//	go run ./benchmark -write-golden                    regenerate testdata/golden_seed1.json
//
// One invocation with -workload and -trace set measures one workload once
// and prints, as the last line of standard output, the result object the
// driver reads. Everything else is orchestration: each measurement runs
// in a process of its own, so none inherits a warmed heap or a filled
// process-wide cache from the one before.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	var (
		workload    = fs.String("workload", "", "workload to run (default: all four, each pass in a process of its own)")
		seed        = fs.Uint64("seed", 1, "seed for synthetic specs, circuit sampling, the arrival schedule and the harness")
		seconds     = fs.Float64("seconds", 10, "how long one pass measures")
		traceMode   = fs.Int("trace", -1, "0: untraced pass, end-to-end metrics; 1: traced pass, per-layer metrics (default: both)")
		smoke       = fs.Bool("smoke", false, "one set-up and one cycle per workload, short micro passes")
		outDir      = fs.String("out", "out/benchmark", "directory for result.json and the traces")
		specPath    = fs.String("spec", "BENCHMARK.json", "the benchmark contract, for -compare and the printed bounds")
		compare     = fs.Bool("compare", false, "compare two result files given as arguments, by the bounds in -spec")
		repeat      = fs.Int("repeat", 0, "run every workload N times untraced, seeds seed..seed+N-1, and print each metric's spread")
		writeGolden = fs.Bool("write-golden", false, "run seed 1 and rewrite "+goldenPath+" from what it produced")
		detail      = fs.String("detail", "", "also write this invocation's full result to the file (the orchestrating modes read it)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}

	switch {
	case *compare:
		if fs.NArg() != 2 {
			return fail(fmt.Errorf("-compare takes two result files"))
		}
		worse, err := compareFiles(os.Stdout, *specPath, fs.Arg(0), fs.Arg(1))
		if err != nil {
			return fail(err)
		}
		if worse {
			return 1
		}
		return 0
	case *repeat > 0:
		if err := repeatRuns(*repeat, *workload, *seed, *seconds, *specPath, *outDir); err != nil {
			return fail(err)
		}
		return 0
	case *writeGolden:
		if err := regenerateGolden(*seconds, *outDir); err != nil {
			return fail(err)
		}
		return 0
	case *workload == "" || *traceMode < 0:
		ok, err := runAll(*workload, *seed, *seconds, *smoke, *outDir)
		if err != nil {
			return fail(err)
		}
		if !ok {
			return 1
		}
		return 0
	}

	g, err := loadGolden()
	if err != nil {
		return fail(err)
	}
	if os.Getenv(envNoGolden) != "" {
		g = &golden{} // regenerating: nothing to compare against yet
	}
	spec, err := loadSpec(*specPath)
	if err != nil {
		return fail(err)
	}
	o := runOpts{workload: *workload, seed: *seed, seconds: *seconds, traced: *traceMode == 1, smoke: *smoke, golden: g}
	if o.traced {
		o.traceOut = filepath.Join(*outDir, "trace_"+*workload+".json")
	}
	res, err := runOne(o)
	if err != nil {
		return fail(err)
	}
	if err := conform(res, spec); err != nil {
		return fail(err)
	}
	printResult(res)
	if *detail != "" {
		if err := writeJSON(*detail, res); err != nil {
			return fail(err)
		}
	}
	// The driver's line: last on standard output.
	b, err := contractLine(res, spec)
	if err != nil {
		return fail(err)
	}
	fmt.Println(string(b))
	if !res.Correct {
		return 1
	}
	return 0
}

// conform holds a result to BENCHMARK.json. An untraced pass must have
// measured every end-to-end metric; what else it measured becomes a
// reading. A traced pass may only have measured per-layer metrics the
// contract names: one it does not name would never be compared. Units
// must agree.
func conform(res *runResult, spec *benchSpec) error {
	want := spec.EndToEnd
	if res.Traced {
		want = spec.PerLayer
	}
	named := map[string]bool{}
	for _, sm := range want {
		named[sm.Name] = true
		m, ok := res.Metrics[sm.Name]
		switch {
		case !ok && !res.Traced:
			return fmt.Errorf("%s: end-to-end metric %s was not measured", res.Workload, sm.Name)
		case ok && m.Unit != sm.Unit:
			return fmt.Errorf("%s: metric %s is in %s, BENCHMARK.json says %s", res.Workload, sm.Name, m.Unit, sm.Unit)
		}
	}
	for name, m := range res.Metrics {
		switch {
		case named[name]:
		case res.Traced:
			return fmt.Errorf("%s: metric %s is measured but BENCHMARK.json does not name it", res.Workload, name)
		default:
			if res.Readings == nil {
				res.Readings = map[string]metric{}
			}
			res.Readings[name] = m
			delete(res.Metrics, name)
		}
	}
	return nil
}

// contractLine is the object the driver reads: every metric the contract
// names for the pass, a value and a unit each. A per-layer metric belongs
// to the workloads that reach its layer; on the others it reads 0, which
// is the time they spend there.
func contractLine(res *runResult, spec *benchSpec) ([]byte, error) {
	type wire struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool            `json:"correct"`
		Attempted int64           `json:"attempted"`
		Failed    int64           `json:"failed"`
		Metrics   map[string]wire `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, map[string]wire{}}
	want := spec.EndToEnd
	if res.Traced {
		want = spec.PerLayer
	}
	for _, sm := range want {
		line.Metrics[sm.Name] = wire{res.Metrics[sm.Name].Value, sm.Unit}
	}
	return json.Marshal(line)
}

// printResult lists every metric by name, with its unit and the sample
// count behind it.
func printResult(res *runResult) {
	pass := "untraced pass, end-to-end metrics"
	if res.Traced {
		pass = "traced pass, per-layer metrics"
	}
	fmt.Printf("== %s: seed %d, %gs, %s (GOMAXPROCS %d, %d CPUs, %s) ==\n",
		res.Workload, res.Seed, res.Seconds, pass, runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version())
	for _, n := range sortedKeys(res.Metrics) {
		m := res.Metrics[n]
		if m.N > 0 {
			fmt.Printf("  %-44s %16.4f %-10s n=%d\n", n, m.Value, m.Unit, m.N)
		} else {
			fmt.Printf("  %-44s %16.4f %s\n", n, m.Value, m.Unit)
		}
	}
	if len(res.Readings) > 0 {
		fmt.Println("  speed readings, no bound (the traced pass reports them as per-layer metrics):")
		for _, n := range sortedKeys(res.Readings) {
			m := res.Readings[n]
			fmt.Printf("    %-42s %16.4f %-10s n=%d\n", n, m.Value, m.Unit, m.N)
		}
	}
	if len(res.Spans) > 0 {
		fmt.Printf("  spans by name (wall, us): %-22s %8s %12s %12s %12s\n", "", "count", "p50", "self p50", "self sum ms")
		for _, s := range res.Spans {
			fmt.Printf("    %-46s %8d %12.1f %12.1f %12.1f\n", s.Name, s.Count, s.P50US, s.SelfP50US, s.SelfSumMS)
		}
	}
	fmt.Printf("  attempted %d, failed %d, correct %v\n", res.Attempted, res.Failed, res.Correct)
	for _, p := range res.Problems {
		fmt.Printf("  CHECK FAILED: %s\n", p)
	}
}

func sortedKeys(m map[string]metric) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
