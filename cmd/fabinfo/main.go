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
	"flag"
	"fmt"
	"os"
	"sort"

	"repro/internal/compile"
	"repro/internal/fabric"
	"repro/internal/netlist"
	"repro/internal/trace"
	"repro/internal/version"
)

func main() {
	circuit := flag.String("circuit", "", "detail one library circuit (empty = summary of all)")
	rows := flag.Int("rows", 16, "strip height in CLB rows")
	tracks := flag.Int("tracks", 12, "routing tracks per channel")
	seed := flag.Uint64("seed", 1, "placement seed")
	pages := flag.Int("pages", 16, "page size in CLBs for the pagination report")
	dump := flag.String("dump", "", "write the compiled bitstream as JSON to this file (requires -circuit)")
	segment := flag.Int("segment", 0, "also report a k-way segmentation of the circuit (requires -circuit)")
	showVersion := flag.Bool("version", false, "print the build version and exit")
	flag.Parse()

	if *showVersion {
		fmt.Println("fabinfo", version.String())
		return
	}
	if err := run(*circuit, *rows, *tracks, *seed, *pages, *dump, *segment); err != nil {
		fmt.Fprintf(os.Stderr, "fabinfo: %v\n", err)
		os.Exit(1)
	}
}

func run(circuit string, rows, tracks int, seed uint64, pageCells int, dump string, segment int) error {
	tm := fabric.DefaultTiming()
	geom := fabric.DefaultGeometry()
	fmt.Printf("reference device: %v, %d CLBs, full serial configuration %v\n",
		geom, geom.NumCLBs(), tm.FullConfigTime(geom))
	fmt.Printf("strip target: %d rows, %d tracks/channel, serial rate %d bit/s\n\n",
		rows, tracks, tm.SerialRateBits)

	reg := netlist.Registry()
	if circuit != "" {
		gen, ok := reg[circuit]
		if !ok {
			return fmt.Errorf("circuit %q not in library (try one of the summary names)", circuit)
		}
		return detail(gen(), rows, tracks, seed, pageCells, tm, dump, segment)
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
			fmt.Sprintf("%dx%d", c.BS.W, c.BS.H), c.Mapped.Depth,
			c.ClockPeriod.String(), c.BS.ConfigCost(tm).String(),
			tm.ReadbackTime(c.BS.FFCells).String())
	}
	return tbl.Render(os.Stdout)
}

func detail(nl *netlist.Netlist, rows, tracks int, seed uint64, pageCells int, tm fabric.Timing, dump string, segment int) error {
	fmt.Printf("netlist:   %s\n", nl)
	c, err := compile.CompileStrip(nl, rows, tracks, compile.Options{Seed: seed, Timing: &tm})
	if err != nil {
		return err
	}
	fmt.Printf("mapped:    %s\n", c.Mapped)
	fmt.Printf("placed:    %dx%d strip, wirelength %d\n", c.Placed.W, c.Placed.H, c.Placed.Wirelength)
	fmt.Printf("routed:    %d connections, %d hops, max channel use %d/%d, %d iterations\n",
		c.Routed.Conns, c.BS.TotalHops, c.Routed.MaxUse, tracks, c.Routed.Iterations)
	fmt.Printf("bitstream: %s\n", c.BS)
	fmt.Printf("timing:    critical path %v, clock %v\n", c.BS.Delay, c.ClockPeriod)
	fmt.Printf("costs:     config %v, readback %v, restore %v\n",
		c.BS.ConfigCost(tm), tm.ReadbackTime(c.BS.FFCells), tm.RestoreTime(c.BS.FFCells))
	pages := c.BS.Pages(pageCells)
	fmt.Printf("paging:    %d pages of <=%d cells", len(pages), pageCells)
	if len(pages) > 0 {
		fmt.Printf(" (page config cost %v)", tm.PartialConfigTime(len(pages[0].Cells), 0))
	}
	fmt.Println()
	if segment > 0 {
		stages, err := netlist.Segment(nl, segment)
		if err != nil {
			return err
		}
		fmt.Printf("segments:  %d stages, gates %v\n", len(stages), netlist.SegmentSizes(stages))
		for _, st := range stages {
			sc, err := compile.CompileStrip(st, rows, tracks, compile.Options{Seed: seed, Timing: &tm})
			if err != nil {
				return err
			}
			fmt.Printf("           %s\n", sc)
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
		fmt.Printf("bitstream JSON written to %s\n", dump)
	}
	return nil
}
