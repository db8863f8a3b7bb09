package bench

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/hostos"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// F8MultiBoard — the paper's §2 outlook: "a computing system composed
// only of FPGA-based boards so that the whole system operation can be
// virtualized". The same total CLB budget is offered as one big board or
// as several smaller ones; the multi-board manager spreads tasks, but a
// circuit can never straddle boards, so wide circuits expose the
// granularity limit.
func F8MultiBoard(cfg Config) (*trace.Table, error) {
	tbl := &trace.Table{
		ID:      "F8",
		Title:   "One big board vs several small boards (same total area)",
		Note:    "paper §2: systems of FPGA boards virtualize like one device, down to the widest circuit",
		Columns: []string{"boards", "cols_each", "makespan_ms", "mean_block_ms", "loads", "blocks", "widest_fits"},
	}
	tasks := 10
	if cfg.Quick {
		tasks = 6
	}
	mkSet := func() *workload.Set {
		return workload.Synthetic(workload.SyntheticConfig{
			Tasks:       tasks,
			OpsPerTask:  5,
			EvalsPerOp:  40_000,
			ComputeTime: 300 * sim.Microsecond,
			SwitchProb:  0.2,
			Seed:        cfg.Seed + 37,
		})
	}
	const totalCols = 24
	splits := []int{1, 2, 4, 8}
	if cfg.Quick {
		splits = []int{1, 2, 4}
	}
	pcfg := core.PartitionConfig{Mode: core.VariablePartitions, Fit: core.BestFit, GC: true, Rotate: true}
	rows, err := parRows(cfg.Jobs, len(splits), func(i int) ([]any, error) {
		boards := splits[i]
		cols := totalCols / boards
		opt := defaultOpt(cfg)
		opt.Geometry.Cols = cols

		set := mkSet()
		k := sim.New()
		var engines []*core.Engine
		var widest int
		for b := 0; b < boards; b++ {
			e, err := engineFor(opt, set.Circuits)
			if err != nil {
				return nil, err
			}
			engines = append(engines, e)
		}
		for _, c := range set.Circuits {
			if w := engines[0].Lib[c.Name].BS.W; w > widest {
				widest = w
			}
		}
		if widest > cols {
			return []any{boards, cols, "infeasible", "-", "-", "-",
				fmt.Sprintf("no (widest needs %d)", widest)}, nil
		}
		mm, err := core.NewMultiManager(k, engines, pcfg)
		if err != nil {
			return nil, err
		}
		// A short slice interleaves the tasks so concurrent partition
		// demand actually reaches the boards.
		osCfg := defaultOS()
		osCfg.TimeSlice = 1 * sim.Millisecond
		osim := hostos.New(k, osCfg, mm)
		set.Spawn(osim)
		k.Run()
		if !osim.AllDone() {
			return nil, fmt.Errorf("bench F8: unfinished tasks with %d boards", boards)
		}
		var meanBlock sim.Time
		for _, t := range osim.Tasks() {
			meanBlock += t.BlockWait / sim.Time(len(osim.Tasks()))
		}
		return []any{boards, cols, ms(osim.Makespan()), ms(meanBlock),
			mm.TotalLoads(), mm.TotalBlocks(), "yes"}, nil
	})
	if err != nil {
		return nil, err
	}
	addRows(tbl, rows)
	return tbl, nil
}
