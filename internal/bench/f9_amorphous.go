package bench

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/hostos"
	"repro/internal/netlist"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workload"
)

// F9AmorphousRegions — §4 refined: fixed-boundary variable partitions
// vs amorphous flexible-boundary regions on the same fragmenting churn.
// The amorphous manager slides neighbors instead of splitting and
// merging slots, and keeps exited strips resident as an adoption cache,
// so a recurring circuit reattaches at zero configuration cost. The row
// pair records the before/after of the tentpole: sustained utilization
// and tail admission (block) latency under identical load.
func F9AmorphousRegions(cfg Config) (*trace.Table, error) {
	tbl := &trace.Table{
		ID:      "F9",
		Title:   "Amorphous regions vs variable partitions under churn",
		Note:    "flexible boundaries slide instead of split/merge; exited strips stay cached for adoption",
		Columns: []string{"manager", "mean_frag", "max_frag", "util_mean_clbs", "hw_util", "blocks", "p95_block_ms", "loads", "relocations", "makespan_ms"},
	}
	small := 24
	wide := 6
	if cfg.Quick {
		small, wide = 10, 3
	}
	// The F4 churn shape, kept verbatim so the comparison isolates the
	// residency model: narrow recurring tasks checkerboard the device,
	// staggered exits leave holes, and wide tasks demand contiguity no
	// single hole provides.
	narrowPool := []*netlist.Netlist{netlist.Parity(16), netlist.Adder(8), netlist.Comparator(16)}
	widePool := []*netlist.Netlist{netlist.Multiplier(6), netlist.Multiplier(8)}
	mkSet := func() *workload.Set {
		src := rng.New(cfg.Seed + 17)
		set := &workload.Set{Circuits: append(append([]*netlist.Netlist{}, narrowPool...), widePool...)}
		arrival := sim.Time(0)
		for i := 0; i < small; i++ {
			taskSrc := src.Split()
			arrival += sim.Time(float64(sim.Millisecond) * taskSrc.ExpFloat64())
			c := narrowPool[taskSrc.Intn(len(narrowPool))]
			dur := sim.Time(taskSrc.Intn(5)+1) * 2 * sim.Millisecond
			set.Tasks = append(set.Tasks, workload.TaskSpec{
				Name:    fmt.Sprintf("small%d", i),
				Arrival: arrival,
				Program: []hostos.Op{
					hostos.UseFPGA(hostos.FPGARequest{Circuit: c.Name, Evaluations: 50_000}),
					hostos.Compute(dur),
					hostos.UseFPGA(hostos.FPGARequest{Circuit: c.Name, Evaluations: 50_000}),
				},
			})
		}
		for i := 0; i < wide; i++ {
			c := widePool[i%len(widePool)]
			set.Tasks = append(set.Tasks, workload.TaskSpec{
				Name:    fmt.Sprintf("wide%d", i),
				Arrival: sim.Time(6+5*i) * sim.Millisecond,
				Program: []hostos.Op{
					hostos.UseFPGA(hostos.FPGARequest{Circuit: c.Name, Evaluations: 80_000}),
				},
			})
		}
		return set
	}
	managers := []string{"partition", "amorphous"}
	rows, err := parRows(cfg.Jobs, len(managers), func(i int) ([]any, error) {
		k := sim.New()
		set := mkSet()
		opt := defaultOpt(cfg)
		opt.Geometry.Cols = 12 // tight enough that holes matter
		e, err := engineFor(opt, set.Circuits)
		if err != nil {
			return nil, err
		}
		var mgr hostos.FPGA
		var frag func() core.FragStats
		switch managers[i] {
		case "partition":
			pm, err := core.NewPartitionManager(k, e, core.PartitionConfig{
				Mode: core.VariablePartitions, Fit: core.BestFit, GC: true, Rotate: true,
			})
			if err != nil {
				return nil, err
			}
			mgr, frag = pm, pm.Frag
		case "amorphous":
			am := core.NewAmorphousManager(k, e, core.DefaultAmorphousConfig())
			mgr, frag = am, am.Frag
		}
		os := hostos.New(k, defaultOS(), mgr)
		set.Spawn(os)
		fragSample := stats.NewSample(false)
		// Sample fragmentation every millisecond while the run progresses.
		for !os.AllDone() {
			fired := k.RunUntil(k.Now() + sim.Millisecond)
			f := frag()
			if f.FreeCols > 0 && f.FreeCols < opt.Geometry.Cols {
				fragSample.Observe(f.Ratio())
			}
			if fired == 0 && k.Pending() == 0 && !os.AllDone() {
				return nil, fmt.Errorf("bench F9: deadlock with manager=%s", managers[i])
			}
		}
		block := stats.NewSample(true)
		var hwTotal sim.Time
		for _, t := range os.Tasks() {
			block.Observe(float64(t.BlockWait))
			hwTotal += t.HWTime
		}
		// Sustained utilization: useful evaluation time delivered per unit
		// of makespan. The two runs execute the identical workload, so
		// whichever residency model finishes it in less virtual time kept
		// the device doing more useful work per cycle. UtilMean cannot
		// show this — it averages configured CLBs over each run's own
		// (different) makespan.
		hwUtil := float64(hwTotal) / float64(os.Makespan())
		snap := e.M.Snapshot(k.Now())
		return []any{managers[i], fragSample.Mean(), fragSample.Max(), snap.UtilMean, hwUtil,
			e.M.Blocks.Value(), ms(sim.Time(block.Quantile(0.95))),
			e.M.Loads.Value(), e.M.Relocations.Value(), ms(os.Makespan())}, nil
	})
	if err != nil {
		return nil, err
	}
	addRows(tbl, rows)
	return tbl, nil
}
