package bench

import (
	"fmt"

	"repro/internal/baseline"
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
	const totalCols = 24
	splits := []int{1, 2, 4, 8}
	if cfg.Quick {
		splits = []int{1, 2, 4}
	}
	return fillRows(tbl, cfg.Jobs, len(splits), func(i int) ([]any, error) {
		boards := splits[i]
		cols := totalCols / boards
		opt := defaultOpt(cfg)
		opt.Geometry.Cols = cols

		set := f8Set(cfg)
		circs, err := compileSet(opt, set.Circuits)
		if err != nil {
			return nil, err
		}
		_, widest, _ := footprint(circs)
		if widest > cols {
			return []any{boards, cols, "infeasible", "-", "-", "-",
				fmt.Sprintf("no (widest needs %d)", widest)}, nil
		}
		// A short slice interleaves the tasks so concurrent partition
		// demand actually reaches the boards.
		osCfg := hostos.DefaultConfig()
		osCfg.TimeSlice = 1 * sim.Millisecond
		st, err := baseline.NewStack(opt, boards, osCfg, nil, set, circs, multiMgr, stacks.Take(keyOf(opt.Geometry, boards)))
		if err != nil {
			return nil, err
		}
		if err := st.Run(set); err != nil {
			return nil, fmt.Errorf("F8 with %d boards: %w", boards, err)
		}
		res, mm := summarize(st), st.Mgr.(*core.MultiManager)
		row := []any{boards, cols, ms(res.Makespan), ms(res.MeanBlock),
			mm.TotalLoads(), mm.TotalBlocks(), "yes"}
		giveStack(st)
		return row, nil
	})
}

// f8Set is the task set every F8 split runs.
func f8Set(cfg Config) *workload.Set {
	tasks := 10
	if cfg.Quick {
		tasks = 6
	}
	return workload.Synthetic(workload.SyntheticConfig{
		Tasks:       tasks,
		OpsPerTask:  5,
		EvalsPerOp:  40_000,
		ComputeTime: 300 * sim.Microsecond,
		SwitchProb:  0.2,
		Seed:        cfg.Seed + 37,
	})
}
