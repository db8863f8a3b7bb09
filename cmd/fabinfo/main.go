// Command fabinfo inspects the device model and the circuit library: it
// compiles circuits through the full CAD flow (map, place, route,
// bitstream) and reports area, timing and configuration costs — the
// numbers the VFPGA managers make decisions with.
//
// Usage:
//
//	fabinfo                        # summary of the whole library
//	fabinfo -circuit mul8          # detail for one circuit
//	fabinfo -rows 24 -tracks 12    # change the target strip geometry
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"repro/internal/compile"
	"repro/internal/fabric"
	"repro/internal/netlist"
	"repro/internal/trace"
	"repro/internal/version"
)

func main() { os.Exit(cli(os.Args[1:], os.Stdout, os.Stderr)) }

// cli is main with its arguments and streams passed in, so the golden
// test drives the documented invocations in-process.
func cli(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("fabinfo", flag.ContinueOnError)
	fs.SetOutput(stderr)
	circuit := fs.String("circuit", "", "detail one library circuit (empty = summary of all)")
	rows := fs.Int("rows", 16, "strip height in CLB rows")
	tracks := fs.Int("tracks", 12, "routing tracks per channel")
	seed := fs.Uint64("seed", 1, "placement seed")
	pages := fs.Int("pages", 16, "page size in CLBs for the pagination report")
	dump := fs.String("dump", "", "write the compiled bitstream as JSON to this file (requires -circuit)")
	segment := fs.Int("segment", 0, "also report a k-way segmentation of the circuit (requires -circuit)")
	showVersion := fs.Bool("version", false, "print the build version and exit")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	if *showVersion {
		fmt.Fprintln(stdout, "fabinfo", version.String())
		return 0
	}
	if err := run(stdout, *circuit, *rows, *tracks, *seed, *pages, *dump, *segment); err != nil {
		fmt.Fprintf(stderr, "fabinfo: %v\n", err)
		return 1
	}
	return 0
}

func run(w io.Writer, circuit string, rows, tracks int, seed uint64, pageCells int, dump string, segment int) error {
	tm := fabric.DefaultTiming()
	geom := fabric.DefaultGeometry()
	fmt.Fprintf(w, "reference device: %v, %d CLBs, full serial configuration %v\n",
		geom, geom.NumCLBs(), tm.FullConfigTime(geom))
	fmt.Fprintf(w, "strip target: %d rows, %d tracks/channel, serial rate %d bit/s\n\n",
		rows, tracks, tm.SerialRateBits)

	reg := netlist.Registry()
	if circuit != "" {
		gen, ok := reg[circuit]
		if !ok {
			return fmt.Errorf("circuit %q not in library (try one of the summary names)", circuit)
		}
		return detail(w, gen(), rows, tracks, seed, pageCells, tm, dump, segment)
	}
	if dump != "" || segment > 0 {
		return fmt.Errorf("-dump and -segment require -circuit")
	}

	names := make([]string, 0, len(reg))
	for name := range reg {
		names = append(names, name)
	}
	sort.Strings(names)
	tbl := &trace.Table{
		ID:      "LIB",
		Title:   "circuit library through the full flow",
		Columns: []string{"circuit", "gates", "ffs", "cells", "strip", "depth", "clock", "config", "state_rw"},
	}
	for _, name := range names {
		nl := reg[name]()
		c, err := compile.CompileStrip(nl, rows, tracks, compile.Options{Seed: seed, Timing: &tm})
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		tbl.AddRow(name, nl.NumGates(), nl.NumDFFs(), c.Cells(),
			fmt.Sprintf("%dx%d", c.BS.W, c.BS.H), c.Depth,
			c.ClockPeriod.String(), c.BS.ConfigCost(tm).String(),
			tm.ReadbackTime(c.BS.FFCells).String())
	}
	return tbl.Render(w)
}

func detail(w io.Writer, nl *netlist.Netlist, rows, tracks int, seed uint64, pageCells int, tm fabric.Timing, dump string, segment int) error {
	fmt.Fprintf(w, "netlist:   %s\n", nl)
	c, err := compile.CompileStrip(nl, rows, tracks, compile.Options{Seed: seed, Timing: &tm})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "mapped:    %s: %d cells (%d registered), %d in, %d out, lut-depth %d\n",
		c.BS.Name, c.Cells(), c.BS.FFCells, c.BS.NumIn, c.BS.NumOut, c.Depth)
	fmt.Fprintf(w, "placed:    %dx%d strip, wirelength %d, %d moves evaluated\n", c.BS.W, c.BS.H, c.Wirelength, c.Moves)
	fmt.Fprintf(w, "routed:    %d connections, %d hops, max channel use %d/%d, %d iterations, %d heap pops\n",
		c.Conns, c.BS.TotalHops, c.MaxUse, c.Tracks, c.Iterations, c.Pops)
	fmt.Fprintf(w, "bitstream: %s\n", c.BS)
	fmt.Fprintf(w, "timing:    critical path %v, clock %v\n", c.BS.Delay, c.ClockPeriod)
	fmt.Fprintf(w, "costs:     config %v, readback %v, restore %v\n",
		c.BS.ConfigCost(tm), tm.ReadbackTime(c.BS.FFCells), tm.RestoreTime(c.BS.FFCells))
	pages := c.BS.Pages(pageCells)
	fmt.Fprintf(w, "paging:    %d pages of <=%d cells", len(pages), pageCells)
	if len(pages) > 0 {
		fmt.Fprintf(w, " (page config cost %v)", tm.PartialConfigTime(len(pages[0].Cells), 0))
	}
	fmt.Fprintln(w)
	if segment > 0 {
		stages, err := netlist.Segment(nl, segment)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "segments:  %d stages, gates %v\n", len(stages), netlist.SegmentSizes(stages))
		for _, st := range stages {
			sc, err := compile.CompileStrip(st, rows, tracks, compile.Options{Seed: seed, Timing: &tm})
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "           %s\n", sc)
		}
	}
	if dump != "" {
		f, err := os.Create(dump)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := c.BS.WriteJSON(f); err != nil {
			return err
		}
		fmt.Fprintf(w, "bitstream JSON written to %s\n", dump)
	}
	return nil
}
