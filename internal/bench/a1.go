package bench

import (
	"sort"

	"repro/internal/compile"
	"repro/internal/netlist"
	"repro/internal/trace"
)

// A1OptimizerAblation — toolchain ablation: what the logic optimizer
// (constant folding, CSE, dead-logic sweep) is worth in CLB area and
// download time. The paper's feasibility argument depends on download
// time, which is proportional to configured cells; the optimizer is a
// direct lever on it.
func A1OptimizerAblation(cfg Config) (*trace.Table, error) {
	tbl := &trace.Table{
		ID:      "A1",
		Title:   "Logic optimizer ablation: CLB area and download time",
		Note:    "ablation: config time ~ cells, so netlist optimization buys reconfiguration speed",
		Columns: []string{"circuit", "cells_raw", "cells_opt", "saving", "config_raw_ms", "config_opt_ms", "clock_raw", "clock_opt"},
	}
	names := []string{"adder16", "cla16", "alu8", "cmp16", "prienc8", "mul4", "popcount16", "sevenseg", "sort4x4", "crc16"}
	if cfg.Quick {
		names = []string{"alu8", "prienc8", "sevenseg"}
	}
	sort.Strings(names)
	reg := netlist.Registry()
	opt := defaultOpt(cfg)
	tm := opt.Timing
	return fillRows(tbl, cfg.Jobs, len(names), func(i int) ([]any, error) {
		name := names[i]
		nl := reg[name]()
		raw, err := stripCache.CompileStrip(nl, opt.Geometry.Rows, opt.Geometry.TracksPerChannel,
			compile.Options{Seed: cfg.Seed + 3, Timing: &tm, DisableOpt: true})
		if err != nil {
			return nil, err
		}
		optc, err := stripCache.CompileStrip(nl, opt.Geometry.Rows, opt.Geometry.TracksPerChannel,
			compile.Options{Seed: cfg.Seed + 3, Timing: &tm})
		if err != nil {
			return nil, err
		}
		saving := 1 - float64(optc.Cells())/float64(raw.Cells())
		return []any{name, raw.Cells(), optc.Cells(), saving,
			ms(raw.BS.ConfigCost(tm)), ms(optc.BS.ConfigCost(tm)),
			raw.ClockPeriod.String(), optc.ClockPeriod.String()}, nil
	})
}
