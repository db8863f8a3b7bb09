// Command vfpgabench regenerates every table and figure of the
// reproduction's evaluation plan (DESIGN.md §4). Each experiment
// operationalizes one qualitative claim of the paper.
//
// Usage:
//
//	vfpgabench                 # run everything, print tables
//	vfpgabench -run T1,F3      # run selected experiments
//	vfpgabench -quick          # reduced sweeps
//	vfpgabench -jobs 4         # worker-pool width (1 = serial)
//	vfpgabench -csv out/       # also write one CSV per table
//
// Experiments fan out across a worker pool (-jobs, default NumCPU) and
// the tables print in the usual order with byte-identical content for
// every -jobs value; only the wall-clock changes.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/version"
)

func main() {
	run := flag.String("run", "all", "comma-separated experiment ids (T1..T5, F1..F10, A1) or 'all'")
	quick := flag.Bool("quick", false, "reduced sweeps")
	seed := flag.Uint64("seed", 1, "experiment seed")
	jobs := flag.Int("jobs", runtime.NumCPU(), "max concurrent workers (1 = serial)")
	csvDir := flag.String("csv", "", "directory to write per-table CSV files")
	showVersion := flag.Bool("version", false, "print the build version and exit")
	flag.Parse()
	if *showVersion {
		fmt.Println("vfpgabench", version.String())
		return
	}

	cfg := bench.Config{Seed: *seed, Quick: *quick, Jobs: *jobs, Now: time.Now}

	var selected []bench.Experiment
	if *run == "all" {
		selected = bench.All()
	} else {
		for _, id := range strings.Split(*run, ",") {
			id = strings.TrimSpace(id)
			e, ok := bench.Find(id)
			if !ok {
				fmt.Fprintf(os.Stderr, "vfpgabench: unknown experiment %q\n", id)
				os.Exit(2)
			}
			selected = append(selected, e)
		}
	}

	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "vfpgabench: %v\n", err)
			os.Exit(1)
		}
	}

	start := time.Now()
	outcomes := bench.Run(cfg, selected)
	wall := time.Since(start)

	failed := false
	for _, o := range outcomes {
		if o.Err != nil {
			fmt.Fprintf(os.Stderr, "vfpgabench: %s failed: %v\n", o.Exp.ID, o.Err)
			failed = true
			continue
		}
		if err := o.Table.Render(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "vfpgabench: render %s: %v\n", o.Exp.ID, err)
			failed = true
			continue
		}
		fmt.Printf("   [%s ran in %v]\n\n", o.Exp.ID, o.Wall.Round(time.Millisecond))
		if *csvDir != "" {
			path := filepath.Join(*csvDir, strings.ToLower(o.Exp.ID)+".csv")
			f, err := os.Create(path)
			if err != nil {
				fmt.Fprintf(os.Stderr, "vfpgabench: %v\n", err)
				failed = true
				continue
			}
			if err := o.Table.WriteCSV(f); err != nil {
				fmt.Fprintf(os.Stderr, "vfpgabench: csv %s: %v\n", o.Exp.ID, err)
				failed = true
			}
			f.Close()
		}
	}

	rec := bench.NewPerfRecord(cfg, outcomes, wall)
	cs := bench.CacheStats()
	fmt.Printf("%d experiments in %v (jobs=%d; serial estimate %v, speedup %.2fx)\n",
		len(outcomes), wall.Round(time.Millisecond), *jobs,
		time.Duration(rec.SerialEstMS*float64(time.Millisecond)).Round(time.Millisecond),
		rec.Speedup)
	fmt.Printf("compile cache: %d hits, %d misses, %d dedups (%.0f%% hit rate, %d/%d entries)\n",
		cs.Hits, cs.Misses, cs.Dedups, 100*cs.HitRate(), cs.Entries, cs.Bound)
	if failed {
		os.Exit(1)
	}
}
