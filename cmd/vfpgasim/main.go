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
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/baseline"
	"repro/internal/compile"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/hostos"
	"repro/internal/lint"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/version"
	"repro/internal/workload"
)

func main() { os.Exit(cli(os.Args[1:], os.Stdout, os.Stderr)) }

// cli is main with its arguments and streams passed in, so the golden
// test drives the documented invocations in-process.
func cli(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("vfpgasim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	scenario := fs.String("scenario", "multimedia", "multimedia | telecom | diagnosis | storage | synthetic")
	manager := fs.String("manager", "dynamic", "dynamic | partition | amorphous | overlay | paged | multi | exclusive | software | merged")
	sched := fs.String("sched", "rr", "fifo | rr | priority")
	slice := fs.Duration("slice", 10*time.Millisecond, "round-robin time slice")
	tasks := fs.Int("tasks", 6, "task count (synthetic scenario)")
	seed := fs.Uint64("seed", 1, "workload seed")
	cols := fs.Int("cols", 32, "device columns")
	rows := fs.Int("rows", 16, "device rows")
	boards := fs.Int("boards", 2, "board count (multi manager)")
	gantt := fs.Bool("gantt", false, "print an ASCII scheduling timeline")
	traceFlag := fs.Bool("trace", false, "print the merged scheduler+device event timeline")
	lintFlag := fs.Bool("lint", false, "run the static verifier on the circuits before and on the device state after simulating; abort on errors")
	faults := fs.String("faults", "", "fault-injection plan, e.g. seed=7,retries=2,config-error=0.05,readback-flip@3")
	showVersion := fs.Bool("version", false, "print the build version and exit")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if *showVersion {
		fmt.Fprintln(stdout, "vfpgasim", version.String())
		return 0
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
			fmt.Fprintf(stderr, "vfpgasim: %v\n", err)
			return 1
		}
		cfg.faults = &plan
	}
	if err := run(cfg, stdout); err != nil {
		fmt.Fprintf(stderr, "vfpgasim: %v\n", err)
		return 1
	}
	return 0
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
func lintCircuits(w io.Writer, set *workload.Set, circs []*compile.Circuit) error {
	var targets []*lint.Target
	for i, nl := range set.Circuits {
		targets = append(targets, &lint.Target{Netlist: nl, Bitstream: circs[i].BS})
	}
	diags, err := lint.Run(targets, lint.Options{MinSeverity: lint.Warning})
	if err != nil {
		return err
	}
	for _, d := range diags {
		fmt.Fprintf(w, "lint: %s\n", d)
	}
	if lint.HasErrors(diags) {
		return fmt.Errorf("lint found %d error(s); refusing to simulate broken circuits", len(lint.Errors(diags)))
	}
	fmt.Fprintf(w, "lint: %d circuits verified, %d warning(s)\n", len(targets), lint.Count(diags, lint.Warning))
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
		s := workload.DefaultSynthetic()
		s.Tasks, s.Seed = cfg.tasks, cfg.seed
		if err := s.Validate(); err != nil { // -tasks is the one parameter a flag sets
			return nil, err
		}
		c, err := s.Config()
		if err != nil {
			return nil, err
		}
		return workload.Synthetic(c), nil
	default:
		return nil, fmt.Errorf("unknown scenario %q", cfg.scenario)
	}
}

func run(cfg runConfig, w io.Writer) (err error) {
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
	fmt.Fprintf(w, "compiling %d circuits for a %v device...\n", len(set.Circuits), opt.Geometry)
	circs, err := core.CompileSet(nil, opt, set.Circuits)
	if err != nil {
		return err
	}
	for _, c := range circs {
		fmt.Fprintf(w, "  %s\n", c)
	}
	if cfg.lint {
		if err := lintCircuits(w, set, circs); err != nil {
			return err
		}
	}

	boards := 1
	if cfg.manager == "multi" {
		if boards = cfg.boards; boards < 1 {
			return fmt.Errorf("multi manager needs at least one board")
		}
	}
	osCfg := hostos.DefaultConfig()
	osCfg.TimeSlice = cfg.slice
	if osCfg.Policy, err = hostos.ParsePolicy(cfg.sched); err != nil {
		return err
	}
	st, err := baseline.NewStack(opt, boards, osCfg, cfg.faults, set, circs,
		baseline.NewManager(cfg.manager, set.CircuitNames(), cfg.seed))
	if err != nil {
		return err
	}
	if st.InitCost > 0 {
		fmt.Fprintf(w, "%s init download: %v\n", cfg.manager, st.InitCost)
	}
	if cfg.faults != nil {
		fmt.Fprintf(w, "fault injection armed: %s\n", cfg.faults)
	}
	var tlog *hostos.EventLog
	if cfg.gantt || cfg.trace {
		tlog = st.Trace()
	}
	if err := st.Run(set); err != nil {
		return err
	}
	osim, engines := st.OS, st.Engines

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
	if err := tbl.Render(w); err != nil {
		return err
	}

	fmt.Fprintf(w, "makespan: %v   ctx switches: %d\n", osim.Makespan(), osim.CtxSwitches)
	for i, eng := range engines {
		m := &eng.M
		label := "manager:"
		if len(engines) > 1 {
			label = fmt.Sprintf("board %d:", i)
		}
		fmt.Fprintf(w, "%s loads=%d evictions=%d readbacks=%d restores=%d rollbacks=%d\n",
			label, m.Loads.Value(), m.Evictions.Value(), m.Readbacks.Value(), m.Restores.Value(), m.Rollbacks.Value())
		fmt.Fprintf(w, "         page faults=%d gc runs=%d relocations=%d blocks=%d muxed ops=%d\n",
			m.PageFaults.Value(), m.GCRuns.Value(), m.Relocations.Value(), m.Blocks.Value(), m.MuxedOps.Value())
		fmt.Fprintf(w, "         config time=%v readback time=%v restore time=%v\n",
			m.ConfigTime, m.ReadbackTime, m.RestoreTime)
		if cfg.faults != nil {
			fmt.Fprintf(w, "faults:  injected=%d retries=%d recoveries=%d escalations=%d fault time=%v\n",
				m.FaultsInjected.Value(), m.FaultRetries.Value(),
				m.FaultRecoveries.Value(), m.FaultEscalations.Value(), m.FaultTime)
			if inj := eng.Ledger().Injector(); inj != nil {
				fmt.Fprintf(w, "         %s\n", inj.Summary())
			}
		}
		fmt.Fprintf(w, "device:  %d/%d CLBs configured at end, mean occupancy %.1f CLBs\n",
			eng.Dev.UsedCells(), opt.Geometry.NumCLBs(), m.Util.Average(int64(st.K.Now())))
	}
	if cfg.gantt {
		fmt.Fprintln(w)
		fmt.Fprintln(w, "timeline ('#' running, '.' ready, 'b' blocked):")
		fmt.Fprint(w, tlog.Gantt(100, osim.Makespan()))
	}
	if cfg.trace {
		fmt.Fprintln(w)
		fmt.Fprintln(w, "merged scheduler+device timeline:")
		if err := st.Timeline().Render(w); err != nil {
			return err
		}
	}
	if cfg.lint {
		// Every manager exposes its live device state through its ledger
		// view; audit it once the run is over.
		diags, err := st.Lint()
		if err != nil {
			return err
		}
		for _, d := range diags {
			fmt.Fprintf(w, "lint: %s\n", d)
		}
		if lint.HasErrors(diags) {
			return fmt.Errorf("device-state invariants violated after the run")
		}
		fmt.Fprintln(w, "lint: final device state verified")
	}
	return nil
}
