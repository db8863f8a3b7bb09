// Command vfpgasim runs one workload scenario under a chosen FPGA
// manager and prints per-task metrics plus the manager's counters —
// the interactive companion to vfpgabench.
//
// Usage:
//
//	vfpgasim -scenario multimedia -manager dynamic
//	vfpgasim -scenario telecom -manager partition -sched rr -slice 5ms
//	vfpgasim -scenario synthetic -manager exclusive -tasks 8
//	vfpgasim -scenario multimedia -manager dynamic -trace
//	vfpgasim -scenario telecom -manager multi -boards 2
//	vfpgasim -scenario multimedia -faults seed=7,retries=2,config-error=0.05 -trace
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/hostos"
	"repro/internal/lint"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/version"
	"repro/internal/workload"
)

func main() {
	scenario := flag.String("scenario", "multimedia", "multimedia | telecom | diagnosis | storage | synthetic")
	manager := flag.String("manager", "dynamic", "dynamic | partition | amorphous | overlay | paged | multi | exclusive | software | merged")
	sched := flag.String("sched", "rr", "fifo | rr | priority")
	slice := flag.Duration("slice", 10*time.Millisecond, "round-robin time slice")
	tasks := flag.Int("tasks", 6, "task count (synthetic scenario)")
	seed := flag.Uint64("seed", 1, "workload seed")
	cols := flag.Int("cols", 32, "device columns")
	rows := flag.Int("rows", 16, "device rows")
	boards := flag.Int("boards", 2, "board count (multi manager)")
	gantt := flag.Bool("gantt", false, "print an ASCII scheduling timeline")
	traceFlag := flag.Bool("trace", false, "print the merged scheduler+device event timeline")
	lintFlag := flag.Bool("lint", false, "run the static verifier on the circuits before and on the device state after simulating; abort on errors")
	faults := flag.String("faults", "", "fault-injection plan, e.g. seed=7,retries=2,config-error=0.05,readback-flip@3")
	showVersion := flag.Bool("version", false, "print the build version and exit")
	flag.Parse()
	if *showVersion {
		fmt.Println("vfpgasim", version.String())
		return
	}

	cfg := runConfig{
		scenario: *scenario, manager: *manager, sched: *sched,
		slice: sim.Time(slice.Nanoseconds()), tasks: *tasks, seed: *seed,
		cols: *cols, rows: *rows, boards: *boards,
		gantt: *gantt, trace: *traceFlag, lint: *lintFlag,
	}
	if *faults != "" {
		plan, err := fault.ParseSpec(*faults)
		if err != nil {
			fmt.Fprintf(os.Stderr, "vfpgasim: %v\n", err)
			os.Exit(1)
		}
		// ParseSpec only checks syntax; the fault-plan lint pass checks
		// semantics (probability mass per injection point, script
		// ordering, retry policy) so a bad campaign aborts here instead
		// of silently injecting the wrong thing.
		diags := lint.RunTarget(&lint.Target{Name: "faults", FaultPlan: &plan},
			lint.Options{Passes: []string{"fault-plan"}, MinSeverity: lint.Warning})
		for _, d := range diags {
			fmt.Fprintf(os.Stderr, "vfpgasim: %s\n", d)
		}
		if lint.HasErrors(diags) {
			fmt.Fprintf(os.Stderr, "vfpgasim: refusing to run a malformed fault plan\n")
			os.Exit(1)
		}
		cfg.faults = &plan
	}
	if err := run(cfg); err != nil {
		fmt.Fprintf(os.Stderr, "vfpgasim: %v\n", err)
		os.Exit(1)
	}
}

type runConfig struct {
	scenario, manager, sched string
	slice                    sim.Time
	tasks                    int
	seed                     uint64
	cols, rows, boards       int
	gantt, trace, lint       bool
	faults                   *fault.Plan
}

// lintCircuits runs the netlist- and bitstream-domain passes over every
// compiled workload circuit; error diagnostics abort the run before any
// simulated time is spent on a broken artifact.
func lintCircuits(set *workload.Set, e *core.Engine) error {
	var targets []*lint.Target
	for _, nl := range set.Circuits {
		t := &lint.Target{Netlist: nl}
		if c, ok := e.Lib[nl.Name]; ok {
			t.Bitstream = c.BS
		}
		targets = append(targets, t)
	}
	diags, err := lint.Run(targets, lint.Options{MinSeverity: lint.Warning})
	if err != nil {
		return err
	}
	for _, d := range diags {
		fmt.Printf("lint: %s\n", d)
	}
	if lint.HasErrors(diags) {
		return fmt.Errorf("lint found %d error(s); refusing to simulate broken circuits", len(lint.Errors(diags)))
	}
	fmt.Printf("lint: %d circuits verified, %d warning(s)\n", len(targets), lint.Count(diags, lint.Warning))
	return nil
}

// lintFinal audits the manager's live device state through its ledger
// view — every manager exposes one via core.LintTargeter.
func lintFinal(mgr hostos.FPGA) error {
	lt, ok := mgr.(core.LintTargeter)
	if !ok {
		return nil
	}
	diags, err := lint.Run(lt.LintTargets(), lint.Options{MinSeverity: lint.Warning})
	if err != nil {
		return err
	}
	for _, d := range diags {
		fmt.Printf("lint: %s\n", d)
	}
	if lint.HasErrors(diags) {
		return fmt.Errorf("device-state invariants violated after the run")
	}
	fmt.Println("lint: final device state verified")
	return nil
}

func buildSet(cfg runConfig) (*workload.Set, error) {
	switch cfg.scenario {
	case "multimedia":
		c := workload.DefaultMultimedia()
		c.Seed = cfg.seed
		return workload.Multimedia(c), nil
	case "telecom":
		c := workload.DefaultTelecom()
		c.Seed = cfg.seed
		return workload.Telecom(c), nil
	case "diagnosis":
		c := workload.DefaultDiagnosis()
		c.Seed = cfg.seed
		return workload.Diagnosis(c), nil
	case "storage":
		c := workload.DefaultStorage()
		c.Seed = cfg.seed
		return workload.Storage(c), nil
	case "synthetic":
		return workload.Synthetic(workload.SyntheticConfig{
			Tasks: cfg.tasks, OpsPerTask: 6, EvalsPerOp: 30_000,
			ComputeTime: 300 * sim.Microsecond, SwitchProb: 0.3, Seed: cfg.seed,
		}), nil
	default:
		return nil, fmt.Errorf("unknown scenario %q", cfg.scenario)
	}
}

func run(cfg runConfig) (err error) {
	// Ledger operations that cannot return errors report an exhausted
	// fault-retry budget as a typed panic; surface it as a normal error.
	defer func() {
		if r := recover(); r != nil {
			if esc, ok := fault.AsEscalation(r); ok {
				err = fmt.Errorf("injected fault escalated: %w", esc)
				return
			}
			panic(r)
		}
	}()
	set, err := buildSet(cfg)
	if err != nil {
		return err
	}

	opt := core.DefaultOptions()
	opt.Geometry.Cols, opt.Geometry.Rows = cfg.cols, cfg.rows
	opt.Seed = cfg.seed + 1
	k := sim.New()
	e := core.NewEngine(opt)
	fmt.Printf("compiling %d circuits for a %v device...\n", len(set.Circuits), opt.Geometry)
	for _, nl := range set.Circuits {
		if err := e.AddCircuit(nl); err != nil {
			return err
		}
		c := e.Lib[nl.Name]
		fmt.Printf("  %s\n", c)
	}
	if cfg.lint {
		if err := lintCircuits(set, e); err != nil {
			return err
		}
	}

	engines := []*core.Engine{e}
	if cfg.manager == "multi" {
		if cfg.boards < 1 {
			return fmt.Errorf("multi manager needs at least one board")
		}
		// Each additional board is its own engine (device, pins, metrics)
		// with the circuits compiled into its own library.
		for i := 1; i < cfg.boards; i++ {
			be := core.NewEngine(opt)
			for _, nl := range set.Circuits {
				if err := be.AddCircuit(nl); err != nil {
					return err
				}
			}
			engines = append(engines, be)
		}
	}
	mgr, initCost, err := baseline.NewManager(cfg.manager, k, engines, set.CircuitNames(), cfg.seed)
	if err != nil {
		return err
	}
	if initCost > 0 {
		fmt.Printf("%s init download: %v\n", cfg.manager, initCost)
	}

	if cfg.faults != nil {
		// Board i draws from its own derived stream, so adding boards
		// never perturbs the faults earlier boards see.
		for i, eng := range engines {
			eng.Ledger().InjectFaults(fault.NewInjector(cfg.faults.Derive(uint64(i))))
		}
		fmt.Printf("fault injection armed: %s\n", cfg.faults)
	}

	policy, err := hostos.ParsePolicy(cfg.sched)
	if err != nil {
		return err
	}
	osim := hostos.New(k, hostos.Config{
		Policy: policy, TimeSlice: cfg.slice, CtxSwitch: 50 * sim.Microsecond, Syscall: 10 * sim.Microsecond,
	}, mgr)
	var tlog *hostos.EventLog
	if cfg.gantt || cfg.trace {
		tlog = hostos.NewEventLog(0)
		osim.AttachTrace(tlog)
	}
	var devLogs []*core.DeviceLog
	if cfg.trace {
		for _, eng := range engines {
			dl := core.NewDeviceLog(0)
			eng.Ledger().AttachLog(dl)
			devLogs = append(devLogs, dl)
		}
	}
	set.Spawn(osim)
	k.Run()
	if !osim.AllDone() {
		return fmt.Errorf("simulation ended with unfinished tasks")
	}

	tbl := &trace.Table{
		ID:      "RUN",
		Title:   fmt.Sprintf("%s under %s (%s, slice %v)", cfg.scenario, cfg.manager, cfg.sched, cfg.slice),
		Columns: []string{"task", "turnaround_ms", "cpu_ms", "hw_ms", "overhead_ms", "wait_ms", "block_ms", "preempts"},
	}
	for _, t := range osim.Tasks() {
		tbl.AddRow(t.Name,
			fmt.Sprintf("%.3f", t.Turnaround().Milliseconds()),
			fmt.Sprintf("%.3f", t.CPUTime.Milliseconds()),
			fmt.Sprintf("%.3f", t.HWTime.Milliseconds()),
			fmt.Sprintf("%.3f", t.Overhead.Milliseconds()),
			fmt.Sprintf("%.3f", t.ReadyWait.Milliseconds()),
			fmt.Sprintf("%.3f", t.BlockWait.Milliseconds()),
			t.Preemptions)
	}
	if err := tbl.Render(os.Stdout); err != nil {
		return err
	}

	fmt.Printf("makespan: %v   ctx switches: %d\n", osim.Makespan(), osim.CtxSwitches)
	for i, eng := range engines {
		m := &eng.M
		label := "manager:"
		if len(engines) > 1 {
			label = fmt.Sprintf("board %d:", i)
		}
		fmt.Printf("%s loads=%d evictions=%d readbacks=%d restores=%d rollbacks=%d\n",
			label, m.Loads.Value(), m.Evictions.Value(), m.Readbacks.Value(), m.Restores.Value(), m.Rollbacks.Value())
		fmt.Printf("         page faults=%d gc runs=%d relocations=%d blocks=%d muxed ops=%d\n",
			m.PageFaults.Value(), m.GCRuns.Value(), m.Relocations.Value(), m.Blocks.Value(), m.MuxedOps.Value())
		fmt.Printf("         config time=%v readback time=%v restore time=%v\n",
			m.ConfigTime, m.ReadbackTime, m.RestoreTime)
		if cfg.faults != nil {
			fmt.Printf("faults:  injected=%d retries=%d recoveries=%d escalations=%d fault time=%v\n",
				m.FaultsInjected.Value(), m.FaultRetries.Value(),
				m.FaultRecoveries.Value(), m.FaultEscalations.Value(), m.FaultTime)
			if inj := eng.Ledger().Injector(); inj != nil {
				fmt.Printf("         %s\n", inj.Summary())
			}
		}
		fmt.Printf("device:  %d/%d CLBs configured at end, mean occupancy %.1f CLBs\n",
			eng.Dev.UsedCells(), opt.Geometry.NumCLBs(), m.Util.Average(int64(k.Now())))
	}
	if tlog != nil && cfg.gantt {
		fmt.Println()
		fmt.Println("timeline ('#' running, '.' ready, 'b' blocked):")
		fmt.Print(tlog.Gantt(100, osim.Makespan()))
	}
	if cfg.trace {
		fmt.Println()
		fmt.Println("merged scheduler+device timeline:")
		if err := core.MergeTimeline(tlog, devLogs...).Render(os.Stdout); err != nil {
			return err
		}
	}
	if cfg.lint {
		if err := lintFinal(mgr); err != nil {
			return err
		}
	}
	return nil
}
