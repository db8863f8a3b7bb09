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
	"strings"
	"time"

	"repro/internal/baseline"
	"repro/internal/compile"
	"repro/internal/fault"
	"repro/internal/lint"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/version"
	"repro/internal/workload"
)

func main() { os.Exit(cli(os.Args[1:], os.Stdout, os.Stderr)) }

// cli is main with its arguments and streams passed in, so the golden
// test drives the documented invocations in-process. The flags map onto
// a daemon board and a job spec, and the run goes through the daemon's
// job body (serve.CompileJob, then serve.ExecuteJob): the board compiles
// with seed+1, the workload draws from seed.
func cli(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("vfpgasim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	scenario := fs.String("scenario", "multimedia", "multimedia | telecom | diagnosis | storage | synthetic")
	manager := fs.String("manager", "dynamic", strings.Join(serve.Managers, " | "))
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

	bc := serve.DefaultBoardConfig()
	bc.Manager, bc.Cols, bc.Rows, bc.SubBoards = *manager, *cols, *rows, *boards
	bc.Sched, bc.Slice, bc.Seed = *sched, sim.Time(slice.Nanoseconds()), *seed+1
	if *faults != "" {
		plan, err := fault.ParseSpec(*faults)
		if err != nil {
			fmt.Fprintf(stderr, "vfpgasim: %v\n", err)
			return 1
		}
		bc.Faults = &plan
	}
	spec, err := workload.BuiltinSpec(*scenario)
	if err == nil {
		spec.SetSeed(*seed)
		if spec.Synthetic != nil {
			spec.Synthetic.Tasks = *tasks
		}
		err = run(stdout, bc, &spec, show{gantt: *gantt, trace: *traceFlag, lint: *lintFlag})
	}
	if err != nil {
		fmt.Fprintf(stderr, "vfpgasim: %v\n", err)
		return 1
	}
	return 0
}

// show is what to print beside the per-task table and the counters.
type show struct{ gantt, trace, lint bool }

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

// run executes spec on a new board built from bc through the job body
// and prints the result. A board the daemon would refuse is refused
// before anything is printed.
func run(w io.Writer, bc serve.BoardConfig, spec *workload.Spec, sh show) error {
	if err := bc.Validate(); err != nil {
		return err
	}
	set, circs, err := serve.CompileJob(nil, nil, bc, spec)
	if err != nil {
		return err
	}
	// Printed once the compile is done, so a spec the job body refuses
	// prints nothing.
	fmt.Fprintf(w, "compiling %d circuits for a %v device...\n", len(circs), bc.Options().Geometry)
	for _, c := range circs {
		fmt.Fprintf(w, "  %s\n", c)
	}
	if sh.lint {
		if err := lintCircuits(w, set, circs); err != nil {
			return err
		}
	}

	st, res, err := serve.ExecuteJob(bc, nil, set, circs, sh.gantt || sh.trace)
	if err != nil {
		return err
	}
	if st.InitCost > 0 {
		fmt.Fprintf(w, "%s init download: %v\n", bc.Manager, st.InitCost)
	}
	if bc.Faults != nil {
		fmt.Fprintf(w, "fault injection armed: %s\n", bc.Faults)
	}
	if err := printResult(w, bc, spec.Scenario, st, res); err != nil {
		return err
	}
	if sh.gantt {
		fmt.Fprintln(w)
		fmt.Fprintln(w, "timeline ('#' running, '.' ready, 'b' blocked):")
		fmt.Fprint(w, st.Gantt(100))
	}
	if sh.trace {
		fmt.Fprintln(w)
		fmt.Fprintln(w, "merged scheduler+device timeline:")
		if err := (&trace.Timeline{Events: res.Timeline}).Render(w); err != nil {
			return err
		}
	}
	if sh.lint {
		// The job body audits the device state every manager leaves
		// behind through its ledger view.
		for _, d := range res.LintDiags {
			fmt.Fprintf(w, "lint: %s\n", d)
		}
		if !res.LintClean {
			return fmt.Errorf("device-state invariants violated after the run")
		}
		fmt.Fprintln(w, "lint: final device state verified")
	}
	return nil
}

// printResult prints the job's per-task table and each engine's
// counters: what the daemon returns for the job, plus what only the
// stack it ran on holds (the device's final occupancy, the fault
// injector's summary).
func printResult(w io.Writer, bc serve.BoardConfig, scenario string, st *baseline.Stack, res *serve.JobResult) error {
	tbl := &trace.Table{
		ID:      "RUN",
		Title:   fmt.Sprintf("%s under %s (%s, slice %v)", scenario, bc.Manager, bc.Sched, bc.Slice),
		Columns: []string{"task", "turnaround_ms", "cpu_ms", "hw_ms", "overhead_ms", "wait_ms", "block_ms", "preempts"},
	}
	msec := func(d sim.Time) string { return fmt.Sprintf("%.3f", d.Milliseconds()) }
	for _, t := range res.Tasks {
		tbl.AddRow(t.Name, msec(t.Turnaround), msec(t.CPUTime), msec(t.HWTime),
			msec(t.Overhead), msec(t.ReadyWait), msec(t.BlockWait), t.Preemptions)
	}
	if err := tbl.Render(w); err != nil {
		return err
	}

	fmt.Fprintf(w, "makespan: %v   ctx switches: %d\n", res.Makespan, res.CtxSwitches)
	for i, m := range res.Metrics {
		eng := st.Engines[i]
		label := "manager:"
		if len(res.Metrics) > 1 {
			label = fmt.Sprintf("board %d:", i)
		}
		fmt.Fprintf(w, "%s loads=%d evictions=%d readbacks=%d restores=%d rollbacks=%d\n",
			label, m.Loads, m.Evictions, m.Readbacks, m.Restores, m.Rollbacks)
		fmt.Fprintf(w, "         page faults=%d gc runs=%d relocations=%d blocks=%d muxed ops=%d\n",
			m.PageFaults, m.GCRuns, m.Relocations, m.Blocks, m.MuxedOps)
		fmt.Fprintf(w, "         config time=%v readback time=%v restore time=%v\n",
			m.ConfigTime, m.ReadbackTime, m.RestoreTime)
		if bc.Faults != nil {
			fmt.Fprintf(w, "faults:  injected=%d retries=%d recoveries=%d escalations=%d fault time=%v\n",
				m.FaultsInjected, m.FaultRetries, m.FaultRecoveries, m.FaultEscalations, m.FaultTime)
			if inj := eng.Ledger().Injector(); inj != nil {
				fmt.Fprintf(w, "         %s\n", inj.Summary())
			}
		}
		fmt.Fprintf(w, "device:  %d/%d CLBs configured at end, mean occupancy %.1f CLBs\n",
			eng.Dev.UsedCells(), eng.Opt.Geometry.NumCLBs(), m.UtilMean)
	}
	return nil
}
