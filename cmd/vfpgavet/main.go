// Command vfpgavet runs the project's custom static analyzers — the
// mechanical form of the architecture contracts — over Go packages in
// this module: ledgeronly, simclock, typederr, metricsonce, mapiter,
// lockproto, layering and testonly (a declaration only tests use leaves
// the product). It is internal/lint's compile-time sibling: lint audits
// netlists, devices and fault plans at runtime; vfpgavet audits the
// source that produces them.
//
// Usage:
//
//	vfpgavet [-list] [-analyzers a,b] [-tests=false] [packages]
//
// Packages default to ./... relative to the current directory. Exit
// status: 0 clean, 1 diagnostics reported, 2 load or internal failure.
// Suppress a finding in place with
//
//	//vfpgavet:ignore name1,name2 -- reason
//
// and opt extra packages into the determinism analyzers with a
// //vfpgavet:deterministic comment anywhere in the package.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/analysis"
	"repro/internal/analysis/layering"
	"repro/internal/analysis/ledgeronly"
	"repro/internal/analysis/load"
	"repro/internal/analysis/lockproto"
	"repro/internal/analysis/mapiter"
	"repro/internal/analysis/metricsonce"
	"repro/internal/analysis/simclock"
	"repro/internal/analysis/testonly"
	"repro/internal/analysis/typederr"
	"repro/internal/version"
)

// all is the registered analyzer suite, in report order.
var all = []*analysis.Analyzer{
	ledgeronly.Analyzer,
	simclock.Analyzer,
	typederr.Analyzer,
	metricsonce.Analyzer,
	mapiter.Analyzer,
	lockproto.Analyzer,
	layering.Analyzer,
	testonly.Analyzer,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr *os.File) int {
	fs := flag.NewFlagSet("vfpgavet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		list        = fs.Bool("list", false, "list analyzers and exit")
		names       = fs.String("analyzers", "", "comma-separated subset of analyzers to run (default all)")
		tests       = fs.Bool("tests", true, "also analyze _test.go files and test packages")
		dir         = fs.String("C", "", "change to this directory before loading packages")
		showVersion = fs.Bool("version", false, "print version and exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *showVersion {
		fmt.Fprintln(stdout, "vfpgavet", version.String())
		return 0
	}
	if *list {
		for _, a := range all {
			fmt.Fprintf(stdout, "%-12s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	analyzers, err := selectAnalyzers(*names)
	if err != nil {
		fmt.Fprintln(stderr, "vfpgavet:", err)
		return 2
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	_, pkgs, err := load.Load(load.Options{Dir: *dir, Tests: *tests}, patterns...)
	if err != nil {
		fmt.Fprintln(stderr, "vfpgavet:", err)
		return 2
	}

	diags, err := analysis.Run(pkgs, analyzers)
	if err != nil {
		fmt.Fprintln(stderr, "vfpgavet:", err)
		return 2
	}
	cwd, _ := os.Getwd()
	for _, d := range diags {
		if cwd != "" {
			if rel, err := filepath.Rel(cwd, d.Pos.Filename); err == nil && !strings.HasPrefix(rel, "..") {
				d.Pos.Filename = rel
			}
		}
		fmt.Fprintln(stdout, d.String())
	}
	if len(diags) > 0 {
		fmt.Fprintf(stderr, "vfpgavet: %d finding(s)\n", len(diags))
		return 1
	}
	return 0
}

func selectAnalyzers(names string) ([]*analysis.Analyzer, error) {
	if names == "" {
		return all, nil
	}
	byName := map[string]*analysis.Analyzer{}
	for _, a := range all {
		byName[a.Name] = a
	}
	var out []*analysis.Analyzer
	for _, n := range strings.Split(names, ",") {
		n = strings.TrimSpace(n)
		if n == "" {
			continue
		}
		a, ok := byName[n]
		if !ok {
			known := make([]string, 0, len(byName))
			for k := range byName {
				known = append(known, k)
			}
			sort.Strings(known)
			return nil, fmt.Errorf("unknown analyzer %q (have %s)", n, strings.Join(known, ", "))
		}
		out = append(out, a)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no analyzers selected")
	}
	return out, nil
}
