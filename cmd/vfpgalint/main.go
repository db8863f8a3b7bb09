// Command vfpgalint runs the static verification passes over the
// circuit library: every netlist in the registry, its compiled
// bitstream, and (for combinational circuits, with -segments) its
// segmented stage chain.
//
// Usage:
//
//	vfpgalint                          # lint the whole library
//	vfpgalint -circuits adder8,crc16   # a subset
//	vfpgalint -json -fail-on warning   # machine-readable, strict
//	vfpgalint -passes net-drive,dead-logic -compile=false
//	vfpgalint -list                    # show the available passes
//	vfpgalint -cols 32 -rows 16        # also bound bitstreams by a device
//
// The exit status is 0 when no diagnostic at or above the -fail-on
// severity was produced, 1 otherwise, and 2 on usage errors.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"repro/internal/compile"
	"repro/internal/fabric"
	"repro/internal/lint"
	"repro/internal/netlist"
	"repro/internal/version"
)

func main() {
	jsonOut := flag.Bool("json", false, "emit diagnostics as JSON lines")
	failOn := flag.String("fail-on", "error", "minimum severity that fails the run: error | warning | info | none")
	passList := flag.String("passes", "", "comma-separated pass subset (default: all)")
	circuits := flag.String("circuits", "", "comma-separated circuit subset (default: the whole registry)")
	doCompile := flag.Bool("compile", true, "also compile each circuit and lint the bitstream")
	segments := flag.Int("segments", 0, "additionally segment combinational circuits into N stages and lint the chain")
	cols := flag.Int("cols", 0, "device columns to bound bitstreams against (0 with -rows 0 skips device checks)")
	rows := flag.Int("rows", 0, "device rows to bound bitstreams against (0 with -cols 0 skips device checks)")
	seed := flag.Uint64("seed", 1, "placement seed for -compile")
	verbose := flag.Bool("v", false, "also print info-severity diagnostics")
	list := flag.Bool("list", false, "list the available passes and exit")
	showVersion := flag.Bool("version", false, "print the build version and exit")
	flag.Parse()

	if *showVersion {
		fmt.Println("vfpgalint", version.String())
		return
	}
	if *list {
		for _, p := range lint.Passes() {
			fmt.Printf("%-18s %s\n", p.Name, p.Doc)
		}
		return
	}
	code, err := run(options{
		json: *jsonOut, failOn: *failOn, passes: *passList, circuits: *circuits,
		compile: *doCompile, segments: *segments,
		cols: *cols, rows: *rows, seed: *seed, verbose: *verbose,
	}, os.Stdout)
	if err != nil {
		fmt.Fprintf(os.Stderr, "vfpgalint: %v\n", err)
		os.Exit(2)
	}
	os.Exit(code)
}

type options struct {
	json             bool
	failOn           string
	passes, circuits string
	compile          bool
	segments         int
	cols, rows       int
	seed             uint64
	verbose          bool
}

func splitList(s string) []string {
	if s == "" {
		return nil
	}
	var out []string
	for _, f := range strings.Split(s, ",") {
		if f = strings.TrimSpace(f); f != "" {
			out = append(out, f)
		}
	}
	return out
}

// run lints the selected circuits, writes the diagnostics to w and
// returns the exit status; an error is a usage error.
func run(o options, w io.Writer) (int, error) {
	var failSev lint.Severity
	failNever := false
	if o.failOn == "none" {
		failNever = true
	} else {
		var err error
		failSev, err = lint.ParseSeverity(o.failOn)
		if err != nil {
			return 0, err
		}
	}

	reg := netlist.Registry()
	names := splitList(o.circuits)
	if len(names) == 0 {
		for name := range reg {
			names = append(names, name)
		}
		sort.Strings(names)
	}

	var geom *fabric.Geometry
	switch {
	case o.cols == 0 && o.rows == 0:
	case o.cols > 0 && o.rows > 0:
		g := fabric.DefaultGeometry()
		g.Cols, g.Rows = o.cols, o.rows
		geom = &g
	default:
		return 0, fmt.Errorf("-cols %d -rows %d: give two positive values, or neither to skip the device checks", o.cols, o.rows)
	}

	opts := lint.Options{Passes: splitList(o.passes)}
	var targets []*lint.Target
	for _, name := range names {
		gen, ok := reg[name]
		if !ok {
			return 0, fmt.Errorf("unknown circuit %q", name)
		}
		nl := gen()
		t := &lint.Target{Netlist: nl, Geometry: geom}
		if o.segments > 1 && !nl.IsSequential() {
			stages, err := netlist.Segment(nl, o.segments)
			if err != nil {
				return 0, fmt.Errorf("segment %s: %w", name, err)
			}
			t.Segments = stages
		}
		if o.compile {
			c, err := compile.Compile(nl, compile.Options{Seed: o.seed})
			if err != nil {
				return 0, fmt.Errorf("compile %s: %w", name, err)
			}
			t.Bitstream = c.BS
		}
		targets = append(targets, t)
	}
	diags, err := lint.Run(targets, opts)
	if err != nil {
		return 0, err
	}

	enc := json.NewEncoder(w)
	for _, d := range diags {
		if d.Severity == lint.Info && !o.verbose {
			continue
		}
		if o.json {
			if err := enc.Encode(d); err != nil {
				return 0, err
			}
		} else {
			fmt.Fprintln(w, d)
		}
	}
	if !o.json {
		fmt.Fprintf(w, "%d circuit(s) linted: %d error(s), %d warning(s), %d info\n",
			len(targets), lint.Count(diags, lint.Error), lint.Count(diags, lint.Warning), lint.Count(diags, lint.Info))
	}
	if failNever {
		return 0, nil
	}
	for _, d := range diags {
		if d.Severity >= failSev {
			return 1, nil
		}
	}
	return 0, nil
}
