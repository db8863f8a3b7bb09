package bench

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"repro/internal/baseline"
	"repro/internal/compile"
	"repro/internal/core"
	"repro/internal/flat"
	"repro/internal/hostos"
	"repro/internal/netlist"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workload"
)

func defaultOpt(cfg Config) core.Options {
	opt := core.DefaultOptions()
	opt.Geometry = benchGeometry()
	opt.Seed = cfg.Seed + 1
	return opt
}

// evalRequests returns one request per circuit, in order, each of evals
// input vectors: a table the ops of a set point into. An experiment
// builds it once, outside the loops that emit ops, and every set it
// builds shares it: a request is read-only.
func evalRequests(evals int64, circuits ...*netlist.Netlist) []hostos.FPGARequest {
	reqs := make([]hostos.FPGARequest, len(circuits))
	for i, c := range circuits {
		reqs[i] = hostos.FPGARequest{Circuit: c.Name, Evaluations: evals}
	}
	return reqs
}

// appSet is a one-task application: passes passes over reqs in order,
// each op pointing into reqs, on the given circuits.
func appSet(passes int, reqs []hostos.FPGARequest, circuits []*netlist.Netlist) *workload.Set {
	var prog []hostos.Op
	for p := 0; p < passes; p++ {
		for i := range reqs {
			prog = append(prog, hostos.UseFPGA(&reqs[i]))
		}
	}
	return &workload.Set{Tasks: []workload.TaskSpec{{Name: "app", Program: prog}}, Circuits: circuits}
}

// pair is one sweep point of a two-axis table.
type pair[A, B any] struct {
	a A
	b B
}

// cross returns a two-axis table's sweep points in row order: each value
// of as with every value of bs.
func cross[A, B any](as []A, bs []B) []pair[A, B] {
	out := make([]pair[A, B], 0, len(as)*len(bs))
	for _, a := range as {
		for _, b := range bs {
			out = append(out, pair[A, B]{a, b})
		}
	}
	return out
}

// T1DynamicLoadingOverhead — the paper's §2/§3 feasibility claim:
// frequent reconfiguration is practical only with partial
// reconfiguration; full serial downloads (~200 ms class) restrict the
// FPGA to occasional reloading. One task alternates two algorithms; the
// compute-to-reconfigure ratio is swept via the hardware work per switch.
func T1DynamicLoadingOverhead(cfg Config) (*trace.Table, error) {
	tbl := &trace.Table{
		ID:      "T1",
		Title:   "Dynamic loading: useful-work fraction vs reconfiguration mode",
		Note:    "paper §2-3: partial reconfiguration enables frequent reloading; full serial download does not",
		Columns: []string{"evals/op", "reconfig", "completion", "turnaround_ms", "hw_ms", "overhead_ms", "efficiency"},
	}
	evalSweep := []int64{1_000, 10_000, 100_000, 1_000_000}
	if cfg.Quick {
		evalSweep = []int64{1_000, 100_000}
	}
	modes := []struct {
		partial    bool
		completion core.CompletionMode
	}{
		{true, core.Apriori},
		{true, core.DoneSignal},
		{false, core.Apriori},
	}
	circuits := []*netlist.Netlist{netlist.MustLookup("adder8"), netlist.MustLookup("alu8")}
	points := cross(evalSweep, modes)
	return fillRows(tbl, cfg.Jobs, len(points), func(i int) ([]any, error) {
		evals, mode := points[i].a, points[i].b
		opt := defaultOpt(cfg)
		opt.Timing.PartialReconfig = mode.partial
		opt.Completion = mode.completion
		var prog []hostos.Op
		ops := 12
		if cfg.Quick {
			ops = 6
		}
		reqs := evalRequests(evals, circuits...)
		for i := 0; i < ops; i++ {
			prog = append(prog, hostos.UseFPGA(&reqs[i%2]))
		}
		set := &workload.Set{
			Tasks:    []workload.TaskSpec{{Name: "alt", Program: prog}},
			Circuits: circuits,
		}
		res, err := runSet(opt, hostos.DefaultConfig(), set, dynamicMgr)
		if err != nil {
			return nil, err
		}
		t := &res.First
		eff := float64(t.HWTime) / float64(t.Turnaround())
		reconfig := "full-only"
		if mode.partial {
			reconfig = "partial"
		}
		return []any{evals, reconfig, mode.completion.String(),
			ms(t.Turnaround()), ms(t.HWTime), ms(t.Overhead), eff}, nil
	})
}

// T2StatePreemption — §3's preemption analysis for sequential circuits:
// save/restore preserves completed cycles at a readback cost, rollback
// redoes work, and non-preemptable ops overstay their slice.
func T2StatePreemption(cfg Config) (*trace.Table, error) {
	tbl := &trace.Table{
		ID:      "T2",
		Title:   "Sequential-circuit preemption policies",
		Note:    "paper §3: preemption requires observable/controllable state; otherwise roll back or refuse",
		Columns: []string{"slice_ms", "policy", "hw_ms", "redone_ms", "overhead_ms", "preemptions", "readbacks", "turnaround_ms"},
	}
	slices := []sim.Time{1 * sim.Millisecond, 5 * sim.Millisecond, 20 * sim.Millisecond}
	if cfg.Quick {
		slices = []sim.Time{2 * sim.Millisecond}
	}
	const cycles = 400_000
	circuits := []*netlist.Netlist{netlist.MustLookup("counter8")}
	points := cross(slices, []core.StatePolicy{core.SaveRestore, core.Rollback, core.NonPreemptable})
	hwReq := hostos.FPGARequest{Circuit: "counter8", Cycles: cycles}
	// The state policy does not enter a compile: every point runs the
	// strip compiled here.
	counter, err := compileSet(defaultOpt(cfg), circuits)
	if err != nil {
		return nil, err
	}
	pure := sim.Time(cycles) * counter[0].ClockPeriod
	return fillRows(tbl, cfg.Jobs, len(points), func(i int) ([]any, error) {
		slice, policy := points[i].a, points[i].b
		opt := defaultOpt(cfg)
		opt.State = policy
		osCfg := hostos.DefaultConfig()
		osCfg.TimeSlice = slice
		set := &workload.Set{
			Tasks: []workload.TaskSpec{
				{Name: "hw", Program: []hostos.Op{hostos.UseFPGA(&hwReq)}},
				{Name: "cpu", Program: []hostos.Op{hostos.Compute(10 * sim.Millisecond)}},
			},
			Circuits: circuits,
		}
		res, err := runSet(opt, osCfg, set, dynamicMgr)
		if err != nil {
			return nil, err
		}
		hw := &res.First
		return []any{fmt.Sprintf("%.0f", slice.Milliseconds()), policy.String(),
			ms(hw.HWTime), ms(hw.HWTime - pure), ms(hw.Overhead),
			hw.Preemptions, res.M.Readbacks, ms(hw.Turnaround())}, nil
	})
}

// t3Managers are T3's rows.
var t3Managers = []struct {
	name string
	mk   baseline.ManagerFunc
}{
	{"dynamic (whole device)", dynamicMgr},
	{"fixed 4x8", baseline.Partition(core.PartitionConfig{Mode: core.FixedPartitions, FixedWidths: []int{8, 8, 8, 8}, Rotate: true})},
	{"fixed 2x16", baseline.Partition(core.PartitionConfig{Mode: core.FixedPartitions, FixedWidths: []int{16, 16}, Rotate: true})},
	{"variable first-fit", baseline.Partition(core.PartitionConfig{Mode: core.VariablePartitions, Fit: core.FirstFit, Rotate: true})},
	{"variable best-fit", baseline.Partition(core.PartitionConfig{Mode: core.VariablePartitions, Fit: core.BestFit, Rotate: true})},
	{"variable + GC", variableMgr},
}

// t3Set is T3's heterogeneous task mix.
func t3Set(cfg Config) *workload.Set {
	tasks := 8
	ops := 6
	if cfg.Quick {
		tasks, ops = 4, 4
	}
	return workload.Synthetic(workload.SyntheticConfig{
		Tasks:       tasks,
		OpsPerTask:  ops,
		EvalsPerOp:  30_000,
		ComputeTime: 300 * sim.Microsecond,
		SwitchProb:  0.25,
		Seed:        cfg.Seed + 7,
	})
}

// T3Partitioning — §4: partitioning reduces reloads versus whole-device
// dynamic loading; fixed partitions are simple but rigid, variable ones
// adapt; rotation and GC trade management overhead for utilization.
func T3Partitioning(cfg Config) (*trace.Table, error) {
	tbl := &trace.Table{
		ID:      "T3",
		Title:   "Partitioning strategies on a heterogeneous task mix",
		Note:    "paper §4: partitions cut reload traffic without impairing parallelism",
		Columns: []string{"manager", "makespan_ms", "mean_turnaround_ms", "mean_block_ms", "loads", "evictions", "blocks", "gc_runs"},
	}
	return fillRows(tbl, cfg.Jobs, len(t3Managers), func(i int) ([]any, error) {
		m := t3Managers[i]
		res, err := runSet(defaultOpt(cfg), hostos.DefaultConfig(), t3Set(cfg), m.mk)
		if err != nil {
			return nil, err
		}
		return []any{m.name, ms(res.Makespan), ms(res.MeanTurnaround), ms(res.MeanBlock),
			res.M.Loads, res.M.Evictions, res.M.Blocks, res.M.GCRuns}, nil
	})
}

// T4Overlay — §2 overlaying: keeping frequently used common functions
// resident removes their reload traffic; only rare functions swap through
// the overlay area.
func T4Overlay(cfg Config) (*trace.Table, error) {
	tbl := &trace.Table{
		ID:      "T4",
		Title:   "Overlaying: resident set vs reload traffic",
		Note:    "paper §2: frequent common functions stay resident; rare ones share the overlay area",
		Columns: []string{"resident_set", "loads", "config_ms", "makespan_ms", "mean_turnaround_ms"},
	}
	hot := netlist.MustLookup("alu8")
	cold := []*netlist.Netlist{netlist.MustLookup("mul4"), netlist.MustLookup("rotl16"), netlist.MustLookup("crc16")}
	circuits := append([]*netlist.Netlist{hot}, cold...)

	tasks := 6
	ops := 10
	if cfg.Quick {
		tasks, ops = 3, 6
	}
	reqs := make([]hostos.FPGARequest, len(circuits)) // hot's, then cold's
	for i, c := range circuits {
		reqs[i].Circuit = c.Name
		if c.IsSequential() {
			reqs[i].Cycles = 20_000
		} else {
			reqs[i].Evaluations = 20_000
		}
	}
	mkSet := func() *workload.Set {
		src := rng.New(cfg.Seed + 11)
		set := &workload.Set{Circuits: circuits}
		for ti := 0; ti < tasks; ti++ {
			taskSrc := src.Split()
			var prog []hostos.Op
			for op := 0; op < ops; op++ {
				req := &reqs[0]
				if taskSrc.Float64() > 0.6 {
					req = &reqs[1+taskSrc.Intn(len(cold))]
				}
				prog = append(prog, hostos.Compute(200*sim.Microsecond), hostos.UseFPGA(req))
			}
			set.Tasks = append(set.Tasks, workload.TaskSpec{Name: fmt.Sprintf("t%d", ti), Program: prog})
		}
		return set
	}
	residentSets := [][]string{
		{},
		{hot.Name},
		{hot.Name, cold[0].Name},
	}
	return fillRows(tbl, cfg.Jobs, len(residentSets), func(i int) ([]any, error) {
		resident := residentSets[i]
		res, err := runSet(defaultOpt(cfg), hostos.DefaultConfig(), mkSet(), baseline.Overlay(len(resident)))
		if err != nil {
			return nil, err
		}
		label := "none (pure overlay)"
		if len(resident) > 0 {
			label = fmt.Sprintf("%v", resident)
		}
		return []any{label, res.M.Loads, ms(res.M.ConfigTime),
			ms(res.Makespan), ms(res.MeanTurnaround)}, nil
	})
}

// T5IOMux — §2 input/output multiplexing: when virtual pins exceed the
// physical pins, transfers time-multiplex and throughput drops by the mux
// factor.
func T5IOMux(cfg Config) (*trace.Table, error) {
	tbl := &trace.Table{
		ID:      "T5",
		Title:   "I/O multiplexing: virtual pins over fewer physical pins",
		Note:    "paper §2: multiplexing increases apparent I/O count at a throughput cost",
		Columns: []string{"phys_pins", "virt_pins", "mux_factor", "hw_ms", "slowdown"},
	}
	c := netlist.MustLookup("adder16") // 33 inputs + 17 outputs = 50 virtual pins
	virt := 50
	pinSweep := []int{16, 8, 4, 2} // pins per side -> 64, 32, 16, 8 pins
	if cfg.Quick {
		pinSweep = []int{16, 4}
	}
	// The slowdown column is relative to the first sweep point, so run the
	// points in parallel and derive the ratios during ordered assembly.
	type point struct {
		phys int
		hw   sim.Time
	}
	req := hostos.FPGARequest{Circuit: c.Name, Evaluations: 100_000}
	points, err := flat.Map(len(pinSweep), cfg.Jobs, func(i int) (point, error) {
		opt := defaultOpt(cfg)
		opt.Geometry.PinsPerSide = pinSweep[i]
		set := &workload.Set{
			Tasks:    []workload.TaskSpec{{Name: "io", Program: []hostos.Op{hostos.UseFPGA(&req)}}},
			Circuits: []*netlist.Netlist{c},
		}
		res, err := runSet(opt, hostos.DefaultConfig(), set, dynamicMgr)
		if err != nil {
			return point{}, err
		}
		return point{phys: opt.Geometry.NumPins(), hw: res.First.HWTime}, nil
	})
	if err != nil {
		return nil, err
	}
	baseHW := points[0].hw
	for _, pt := range points {
		mux := (virt + pt.phys - 1) / pt.phys
		if mux < 1 {
			mux = 1
		}
		tbl.AddRow(pt.phys, virt, mux, ms(pt.hw), float64(pt.hw)/float64(baseHW))
	}
	return tbl, nil
}

// F1VirtualCapacity — the headline claim: "map larger circuits on smaller
// FPGAs". An application whose stages together dwarf the device runs by
// loading one stage at a time; the cost is reconfiguration time.
func F1VirtualCapacity(cfg Config) (*trace.Table, error) {
	tbl := &trace.Table{
		ID:      "F1",
		Title:   "Virtual capacity: application cells / device cells vs slowdown",
		Note:    "paper §1/§5: smaller (cheaper) FPGAs run larger applications at bounded slowdown",
		Columns: []string{"device_cols", "device_cells", "app_cells", "size_ratio", "makespan_ms", "slowdown"},
	}
	stages := []*netlist.Netlist{
		netlist.MustLookup("mul4"), netlist.MustLookup("alu8"), netlist.MustLookup("rotl16"),
		netlist.MustLookup("popcount32"), netlist.MustLookup("adder16"), netlist.MustLookup("cmp16"),
	}
	passes := 3
	if cfg.Quick {
		passes = 2
	}
	reqs := evalRequests(100_000, stages...)

	// Pre-compile at the bench geometry to learn widths and cells.
	probe, err := compileSet(defaultOpt(cfg), stages)
	if err != nil {
		return nil, err
	}
	sumW, maxW, appCells := footprint(probe)
	// residentPrefix returns the largest k such that stages[0:k] stay
	// resident and the widest remaining stage still fits in the leftover
	// overlay area.
	residentPrefix := func(cols int) int {
		best := 0
		for k := 0; k <= len(probe); k++ {
			sum, _, _ := footprint(probe[:k])
			if _, rest, _ := footprint(probe[k:]); sum+rest <= cols {
				best = k
			}
		}
		return best
	}

	// Sweep from "everything fits" down to "one stage at a time".
	clamp := func(c int) int {
		if c < maxW+1 {
			return maxW + 1
		}
		return c
	}
	colSweep := []int{sumW + 2, clamp(3 * sumW / 4), clamp(sumW / 2), clamp(maxW + 4), maxW + 1}
	if cfg.Quick {
		colSweep = []int{sumW + 2, clamp(sumW / 2), maxW + 1}
	}
	seen := map[int]bool{}
	var uniq []int
	for _, c := range colSweep {
		if !seen[c] {
			seen[c] = true
			uniq = append(uniq, c)
		}
	}
	sort.Sort(sort.Reverse(sort.IntSlice(uniq)))
	colSweep = uniq

	// Run the zero-reconfiguration reference (index 0) and every shrinking
	// overlay device in parallel; the slowdown column divides by the
	// reference makespan, so ratios are derived during ordered assembly.
	makespans, err := flat.Map(1+len(colSweep), cfg.Jobs, func(i int) (sim.Time, error) {
		if i == 0 {
			optRef := defaultOpt(cfg)
			optRef.Geometry.Cols = colSweep[0]
			mergedRes, err := runSet(optRef, hostos.DefaultConfig(), appSet(passes, reqs, stages), mergedMgr)
			if err != nil {
				return 0, err
			}
			return mergedRes.Makespan, nil
		}
		// Overlaying on a shrinking device: as many stages resident as
		// fit, the rest swapping through the overlay area.
		cols := colSweep[i-1]
		opt := defaultOpt(cfg)
		opt.Geometry.Cols = cols
		res, err := runSet(opt, hostos.DefaultConfig(), appSet(passes, reqs, stages), baseline.Overlay(residentPrefix(cols)))
		if err != nil {
			return 0, err
		}
		return res.Makespan, nil
	})
	if err != nil {
		return nil, err
	}
	ref := makespans[0]
	rows := defaultOpt(cfg).Geometry.Rows
	devCells := colSweep[0] * rows
	tbl.AddRow(fmt.Sprintf("%d (merged)", colSweep[0]), devCells, appCells,
		float64(appCells)/float64(devCells), ms(ref), 1.0)
	for j, cols := range colSweep {
		devCells := cols * rows
		tbl.AddRow(cols, devCells, appCells, float64(appCells)/float64(devCells),
			ms(makespans[j+1]), float64(makespans[j+1])/float64(ref))
	}
	return tbl, nil
}

// F2SchedulingModes — §4: the non-preemptable exclusive FPGA collapses
// parallelism ("implicitly forcing the scheduling to a strictly FIFO
// policy"); dynamic loading and partitioning restore it.
func F2SchedulingModes(cfg Config) (*trace.Table, error) {
	tbl := &trace.Table{
		ID:      "F2",
		Title:   "Task wait time: exclusive vs dynamic loading vs partitioning",
		Note:    "paper §4: exclusive assignment makes everyone else wait; VFPGA techniques do not",
		Columns: []string{"tasks", "manager", "mean_wait_ms", "mean_block_ms", "makespan_ms"},
	}
	taskSweep := []int{2, 4, 8}
	if cfg.Quick {
		taskSweep = []int{2, 4}
	}
	pool := []*netlist.Netlist{netlist.MustLookup("parity16"), netlist.MustLookup("adder8"), netlist.MustLookup("alu8"), netlist.MustLookup("cmp16")}
	reqs := evalRequests(50_000, pool...)
	mkSet := func(n int) *workload.Set {
		set := &workload.Set{Circuits: pool}
		for ti := 0; ti < n; ti++ {
			req := &reqs[ti%len(reqs)]
			var prog []hostos.Op
			for op := 0; op < 4; op++ {
				prog = append(prog, hostos.Compute(500*sim.Microsecond), hostos.UseFPGA(req))
			}
			set.Tasks = append(set.Tasks, workload.TaskSpec{Name: fmt.Sprintf("t%d", ti), Program: prog})
		}
		return set
	}
	managers := []struct {
		name string
		mk   baseline.ManagerFunc
	}{
		{"exclusive (non-preemptable)", exclusiveMgr},
		{"dynamic loading", dynamicMgr},
		{"variable partitions", variableMgr},
	}
	points := cross(taskSweep, managers)
	return fillRows(tbl, cfg.Jobs, len(points), func(i int) ([]any, error) {
		n, m := points[i].a, points[i].b
		// A 1 ms slice forces interleaving, so holders of the exclusive
		// device yield the CPU between operations while keeping the FPGA.
		osCfg := hostos.DefaultConfig()
		osCfg.TimeSlice = 1 * sim.Millisecond
		res, err := runSet(defaultOpt(cfg), osCfg, mkSet(n), m.mk)
		if err != nil {
			return nil, err
		}
		return []any{n, m.name, ms(res.MeanWait), ms(res.MeanBlock), ms(res.Makespan)}, nil
	})
}

// F3MergedVsDynamic — §3: merging all circuits into one configuration is
// the trivial solution when the device is big enough; dynamic loading is
// what remains when it is not.
func F3MergedVsDynamic(cfg Config) (*trace.Table, error) {
	tbl := &trace.Table{
		ID:      "F3",
		Title:   "Merged configuration vs dynamic loading across device sizes",
		Note:    "paper §3: 'if the FPGA is large enough ... merge all circuits into only one'",
		Columns: []string{"device_cols", "merged_makespan_ms", "dynamic_makespan_ms", "dynamic_loads"},
	}
	mkSet := func() *workload.Set {
		return workload.Synthetic(workload.SyntheticConfig{
			Tasks:       6,
			OpsPerTask:  5,
			EvalsPerOp:  40_000,
			ComputeTime: 200 * sim.Microsecond,
			Pool:        []string{"parity16", "adder8", "alu8", "mul4"},
			SwitchProb:  0.5,
			Seed:        cfg.Seed + 13,
		})
	}
	// Probe the merged footprint once: merged fits iff the strip widths
	// sum within the device columns.
	probe, err := compileSet(defaultOpt(cfg), mkSet().Circuits)
	if err != nil {
		return nil, err
	}
	sumW, _, _ := footprint(probe)

	colSweep := []int{6, 9, 12, 16, 24}
	if cfg.Quick {
		colSweep = []int{6, 16}
	}
	return fillRows(tbl, cfg.Jobs, len(colSweep), func(i int) ([]any, error) {
		cols := colSweep[i]
		opt := defaultOpt(cfg)
		opt.Geometry.Cols = cols
		merged := fmt.Sprintf("n/a (needs %d cols)", sumW)
		if sumW <= cols {
			mres, err := runSet(opt, hostos.DefaultConfig(), mkSet(), mergedMgr)
			if err != nil {
				return nil, err
			}
			merged = ms(mres.Makespan)
		}
		dres, err := runSet(opt, hostos.DefaultConfig(), mkSet(), dynamicMgr)
		if err != nil {
			return nil, err
		}
		return []any{cols, merged, ms(dres.Makespan), dres.M.Loads}, nil
	})
}

// churnSets returns the builder of the fragmenting workload F4 and F9
// share (one fresh set per run, over circuits generated once): a stream
// of narrow long-lived tasks creates a checkerboard of partitions;
// staggered exits leave holes. Wide tasks then need more contiguous
// columns than any single hole provides — the paper's "space may be
// actually available even if split in more idle existing partitions".
func churnSets(cfg Config) func() *workload.Set {
	small, wide := 24, 6
	if cfg.Quick {
		small, wide = 10, 3
	}
	narrowPool := []*netlist.Netlist{netlist.MustLookup("parity16"), netlist.MustLookup("adder8"), netlist.MustLookup("cmp16")}
	widePool := []*netlist.Netlist{mul6(), netlist.MustLookup("mul8")}
	narrowReqs, wideReqs := evalRequests(50_000, narrowPool...), evalRequests(80_000, widePool...)
	return func() *workload.Set {
		src := rng.New(cfg.Seed + 17)
		set := &workload.Set{Circuits: append(append([]*netlist.Netlist{}, narrowPool...), widePool...)}
		arrival := sim.Time(0)
		for i := 0; i < small; i++ {
			taskSrc := src.Split()
			arrival += sim.Time(float64(sim.Millisecond) * taskSrc.ExpFloat64())
			req := &narrowReqs[taskSrc.Intn(len(narrowReqs))]
			dur := sim.Time(taskSrc.Intn(5)+1) * 2 * sim.Millisecond
			set.Tasks = append(set.Tasks, workload.TaskSpec{
				Name:    fmt.Sprintf("small%d", i),
				Arrival: arrival,
				Program: []hostos.Op{hostos.UseFPGA(req), hostos.Compute(dur), hostos.UseFPGA(req)},
			})
		}
		for i := 0; i < wide; i++ {
			set.Tasks = append(set.Tasks, workload.TaskSpec{
				Name:    fmt.Sprintf("wide%d", i),
				Arrival: sim.Time(6+5*i) * sim.Millisecond,
				Program: []hostos.Op{hostos.UseFPGA(&wideReqs[i%len(wideReqs)])},
			})
		}
		return set
	}
}

// runChurn runs a churn set under a strip manager on a 12-column device
// — tight enough that holes matter — sampling the manager's
// external-fragmentation ratio every millisecond of the run. row reads
// the table row off the finished stack and the sample; the stack goes
// back to the free list after.
func runChurn(cfg Config, set *workload.Set, mk baseline.ManagerFunc,
	row func(st *baseline.Stack, frag *stats.Sample) []any) ([]any, error) {

	opt := defaultOpt(cfg)
	opt.Geometry.Cols = 12
	st, err := newStack(opt, 1, hostos.DefaultConfig(), set, mk)
	if err != nil {
		return nil, err
	}
	mgr := st.Mgr.(interface{ Frag() core.FragStats })
	frag := stats.NewSample(false)
	set.Spawn(st.OS)
	for !st.OS.AllDone() {
		fired := st.K.RunUntil(st.K.Now() + sim.Millisecond)
		if f := mgr.Frag(); f.FreeCols > 0 && f.FreeCols < opt.Geometry.Cols {
			frag.Observe(f.Ratio())
		}
		if fired == 0 && st.K.Pending() == 0 && !st.OS.AllDone() {
			return nil, errors.New("bench: churn run deadlocked")
		}
	}
	r := row(st, frag)
	giveStack(st)
	return r, nil
}

// F4Fragmentation — §4: variable partitions fragment under churn; garbage
// collection merges idle fragments at relocation cost.
func F4Fragmentation(cfg Config) (*trace.Table, error) {
	tbl := &trace.Table{
		ID:      "F4",
		Title:   "External fragmentation under churn, GC off vs on",
		Note:    "paper §4: merge idle partitions so no task waits while total space suffices",
		Columns: []string{"gc", "mean_frag", "max_frag", "blocks", "mean_block_ms", "gc_runs", "relocations", "makespan_ms"},
	}
	mkSet := churnSets(cfg)
	gcSweep := []bool{false, true}
	return fillRows(tbl, cfg.Jobs, len(gcSweep), func(i int) ([]any, error) {
		gc := gcSweep[i]
		row, err := runChurn(cfg, mkSet(), baseline.Partition(core.PartitionConfig{
			Mode: core.VariablePartitions, Fit: core.BestFit, GC: gc,
		}), func(st *baseline.Stack, frag *stats.Sample) []any {
			res := summarize(st)
			return []any{gc, frag.Mean(), frag.Max(), res.M.Blocks, ms(res.MeanBlock),
				res.M.GCRuns, res.M.Relocations, ms(res.Makespan)}
		})
		if err != nil {
			return nil, fmt.Errorf("F4 gc=%v: %w", gc, err)
		}
		return row, nil
	})
}

// F5Pagination — §2: page size trades fault frequency against per-fault
// cost; the replacement policy decides how well locality is exploited.
func F5Pagination(cfg Config) (*trace.Table, error) {
	tbl := &trace.Table{
		ID:      "F5",
		Title:   "Demand paging: page size x replacement policy",
		Note:    "paper §2: configurations split into fixed-size pages loaded on demand",
		Columns: []string{"page_cells", "pages", "frames", "policy", "faults", "fault_rate", "config_ms", "makespan_ms"},
	}
	circuit := netlist.MustLookup("mul8")
	refs := 300
	if cfg.Quick {
		refs = 80
	}
	pageSweep := []int{8, 16, 32}
	if cfg.Quick {
		pageSweep = []int{8, 32}
	}
	policies := []core.ReplacePolicy{core.LRU, core.PageFIFO, core.Clock, core.Random}
	if cfg.Quick {
		policies = []core.ReplacePolicy{core.LRU, core.Random}
	}
	// One reference string per page size, shared read-only by its
	// policies' runs: the page count comes off the compiled circuit.
	probe, err := compileSet(defaultOpt(cfg), []*netlist.Netlist{circuit})
	if err != nil {
		return nil, err
	}
	pageCounts, pageSets := make([]int, len(pageSweep)), make([]*workload.Set, len(pageSweep))
	for i, pageCells := range pageSweep {
		pageCounts[i] = (probe[0].Cells() + pageCells - 1) / pageCells
		pageSets[i] = workload.Paged(workload.PagedConfig{
			Circuit: circuit,
			Refs:    refs,
			Pages:   pageCounts[i],
			WorkSet: 3,
			Skew:    1.2,
			Evals:   5_000,
			Seed:    cfg.Seed + 19,
		})
	}
	points := cross(pageSweep, policies)
	return fillRows(tbl, cfg.Jobs, len(points), func(i int) ([]any, error) {
		pageCells, policy := points[i].a, points[i].b
		pages, set := pageCounts[i/len(policies)], pageSets[i/len(policies)]
		frames := pages/2 + 1
		res, err := runSet(defaultOpt(cfg), hostos.DefaultConfig(), set, baseline.Paged(core.PagedConfig{
			PageCells: pageCells, Frames: frames, Policy: policy, Seed: cfg.Seed,
		}))
		if err != nil {
			return nil, err
		}
		faults := res.M.PageFaults
		return []any{pageCells, pages, frames, policy.String(), faults,
			float64(faults) / float64(refs*3), ms(res.M.ConfigTime), ms(res.Makespan)}, nil
	})
}

// f6Stages are F6's hand-segmented application: four library circuits.
func f6Stages() []*netlist.Netlist {
	return []*netlist.Netlist{
		netlist.MustLookup("alu8"), netlist.MustLookup("mul4"), netlist.MustLookup("rotl16"), netlist.MustLookup("popcount32"),
	}
}

// F6's seed-independent netlists, built once per process as
// netlist.MustLookup builds a library circuit: the monolith of the four
// stages, and mul8 cut into k stages for each k of f6Ks (quick runs the
// first). The compile cache keys a circuit by name, so a shared instance
// compiles as a new one would.
var (
	f6Ks       = []int{2, 4}
	f6Monolith = sync.OnceValues(func() (*netlist.Netlist, error) {
		return netlist.Concat("monolithic", f6Stages()...)
	})
	mul8Cuts = func() map[int]func() ([]*netlist.Netlist, error) {
		cuts := map[int]func() ([]*netlist.Netlist, error){}
		for _, k := range f6Ks {
			cuts[k] = sync.OnceValues(func() ([]*netlist.Netlist, error) {
				return netlist.Segment(netlist.MustLookup("mul8"), k)
			})
		}
		return cuts
	}()
)

// F6Segmentation — §2: decompose a function into self-contained
// sub-functions loaded on demand; the monolithic alternative needs a
// device as large as all segments together.
func F6Segmentation(cfg Config) (*trace.Table, error) {
	tbl := &trace.Table{
		ID:      "F6",
		Title:   "Segmentation vs monolithic configuration",
		Note:    "paper §2: variable-size self-contained sub-functions vs one merged download",
		Columns: []string{"approach", "device_cols", "app_cells", "loads", "makespan_ms"},
	}
	stages := f6Stages()
	mono, err := f6Monolith()
	if err != nil {
		return nil, err
	}
	passes := 3
	if cfg.Quick {
		passes = 2
	}

	// Automatic segmentation input: one large netlist (an 8x8 multiplier)
	// cut into k level-balanced stages by netlist.Segment — the paper's
	// "self-contained sub-functions having variable size" derived
	// mechanically rather than by hand.
	big := netlist.MustLookup("mul8")
	ks := f6Ks
	if cfg.Quick {
		ks = f6Ks[:1]
	}

	// Phase 1 — probes. Strip compilation dominates this experiment, so
	// the independent probe compilations (hand stages + monolith, the
	// whole mul8, and each auto-segmentation) run in parallel; the
	// device-sizing arithmetic below consumes their widths.
	type probeResult struct {
		segs  []*netlist.Netlist // what was compiled; the auto-segmentation runs reuse it
		circs []*compile.Circuit
	}
	probes, err := flat.Map(2+len(ks), cfg.Jobs, func(i int) (probeResult, error) {
		var segs []*netlist.Netlist
		switch i {
		case 0:
			segs = append(append(segs, stages...), mono)
		case 1:
			segs = []*netlist.Netlist{big}
		default:
			var err error
			if segs, err = mul8Cuts[ks[i-2]](); err != nil {
				return probeResult{}, err
			}
		}
		circs, err := compileSet(defaultOpt(cfg), segs)
		return probeResult{segs, circs}, err
	})
	if err != nil {
		return nil, err
	}
	monoC, wholeC := probes[0].circs[len(stages)], probes[1].circs[0]
	_, maxSegW, segCells := footprint(probes[0].circs[:len(stages)])
	monoW := monoC.BS.W

	// Phase 2 — runs, each on a device two columns wider than its widest
	// strip: monolithic, segmented, one per auto-segmentation k, and the
	// whole-mul8 reference. A single circuit does the four stages' work
	// in four ops a pass.
	runs, err := flat.Map(3+len(ks), cfg.Jobs, func(i int) ([]any, error) {
		var label string
		var w, cells int
		var set *workload.Set
		switch i {
		case 0:
			label, w, cells = "monolithic (big device)", monoW, monoC.Cells()
			set = appSet(passes*len(stages), evalRequests(50_000, mono), []*netlist.Netlist{mono})
		case 1:
			label, w, cells = "segmented (small device)", maxSegW, segCells
			set = appSet(passes, evalRequests(50_000, stages...), stages)
		case 2 + len(ks):
			label, w, cells = "whole mul8 (big device)", wholeC.BS.W, wholeC.Cells()
			set = appSet(passes*len(stages), evalRequests(50_000, big), []*netlist.Netlist{big})
		default:
			label = fmt.Sprintf("auto-segmented mul8 (k=%d)", ks[i-2])
			_, w, cells = footprint(probes[i].circs)
			set = appSet(passes, evalRequests(50_000, probes[i].segs...), probes[i].segs)
		}
		opt := defaultOpt(cfg)
		opt.Geometry.Cols = w + 2
		res, err := runSet(opt, hostos.DefaultConfig(), set, dynamicMgr)
		if err != nil {
			return nil, err
		}
		return []any{label, opt.Geometry.Cols, cells, res.M.Loads, ms(res.Makespan)}, nil
	})
	if err != nil {
		return nil, err
	}
	tbl.AddRow(runs[0]...)
	tbl.AddRow(runs[1]...)
	// Monolithic on the small device: infeasible by construction.
	tbl.AddRow("monolithic (small device)", maxSegW+2, monoC.Cells(),
		"n/a", fmt.Sprintf("infeasible: needs %d cols", monoW))
	for _, r := range runs[2:] {
		tbl.AddRow(r...)
	}
	return tbl, nil
}

// F7Applications — §5's scenarios: multimedia codec switching, telecom
// protocol adaptation, embedded diagnosis. VFPGA on a small device is
// compared with software-only execution and a merged big-FPGA.
func F7Applications(cfg Config) (*trace.Table, error) {
	tbl := &trace.Table{
		ID:      "F7",
		Title:   "Application scenarios: VFPGA vs software vs big FPGA",
		Note:    "paper §5: cost reduction expands the market — same workloads, smaller device",
		Columns: []string{"scenario", "manager", "device_cols", "makespan_ms", "mean_turnaround_ms", "loads"},
	}
	priorityOS := hostos.DefaultConfig()
	priorityOS.Policy = hostos.Priority
	scenarios := []struct {
		name string
		set  func() *workload.Set
		os   hostos.Config
	}{
		{"multimedia", func() *workload.Set {
			c := workload.DefaultMultimedia()
			c.Seed = cfg.Seed + 23
			if cfg.Quick {
				c.Streams, c.Frames = 2, 8
			}
			return workload.Multimedia(c)
		}, hostos.DefaultConfig()},
		{"telecom", func() *workload.Set {
			c := workload.DefaultTelecom()
			c.Seed = cfg.Seed + 29
			if cfg.Quick {
				c.Sessions = 4
			}
			return workload.Telecom(c)
		}, hostos.DefaultConfig()},
		{"diagnosis", func() *workload.Set {
			c := workload.DefaultDiagnosis()
			c.Seed = cfg.Seed + 31
			if cfg.Quick {
				c.ControlOps = 20
			}
			return workload.Diagnosis(c)
		}, priorityOS},
		{"storage", func() *workload.Set {
			c := workload.DefaultStorage()
			c.Seed = cfg.Seed + 41
			if cfg.Quick {
				c.Requests = 6
			}
			return workload.Storage(c)
		}, hostos.DefaultConfig()},
	}
	// Scenarios fan out in parallel, and each scenario fans its manager
	// comparison out again; rows flatten back in scenario-then-manager
	// order.
	perScenario, err := flat.Map(len(scenarios), cfg.Jobs, func(si int) ([][]any, error) {
		sc := scenarios[si]
		// Probe widths to size the small and big devices.
		probe, err := compileSet(defaultOpt(cfg), sc.set().Circuits)
		if err != nil {
			return nil, err
		}
		sumW, maxW, _ := footprint(probe)
		smallCols := maxW + 2
		bigCols := sumW + 2

		managers := []struct {
			name string
			cols int
			mk   baseline.ManagerFunc
		}{
			{"software only", smallCols, softwareMgr},
			{"vfpga dynamic (small)", smallCols, dynamicMgr},
			{"vfpga partitions (mid)", (smallCols + bigCols) / 2, variableMgr},
			{"merged big FPGA", bigCols, mergedMgr},
		}
		return flat.Map(len(managers), cfg.Jobs, func(mi int) ([]any, error) {
			m := managers[mi]
			opt := defaultOpt(cfg)
			opt.Geometry.Cols = m.cols
			res, err := runSet(opt, sc.os, sc.set(), m.mk)
			if err != nil {
				return nil, fmt.Errorf("F7 %s/%s: %w", sc.name, m.name, err)
			}
			return []any{sc.name, m.name, m.cols, ms(res.Makespan), ms(res.MeanTurnaround),
				res.M.Loads}, nil
		})
	})
	if err != nil {
		return nil, err
	}
	for _, rows := range perScenario {
		for _, r := range rows {
			tbl.AddRow(r...)
		}
	}
	return tbl, nil
}
