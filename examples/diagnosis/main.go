// Embedded diagnosis — the paper's §5 scenario: a high-priority control
// loop owns the FPGA most of the time, while periodic low-priority test
// and tuning functions run "non-frequent functions" in hardware. The
// overlay manager keeps the control datapath resident and swaps the rare
// diagnostics through the overlay area.
package main

import (
	"fmt"
	"log"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/hostos"
	"repro/internal/sim"
	"repro/internal/workload"
)

func main() {
	set := workload.Diagnosis(workload.DefaultDiagnosis())

	opt := core.DefaultOptions()
	opt.Geometry.Cols, opt.Geometry.Rows = 24, 16
	circs, err := core.CompileSet(nil, opt, set.Circuits)
	if err != nil {
		log.Fatal(err)
	}
	// The control-law datapath (first circuit) is the frequent common
	// function: it stays resident. Diagnostics overlay on the right.
	resident := set.CircuitNames()[:1]
	osCfg := hostos.DefaultConfig()
	osCfg.Policy, osCfg.TimeSlice = hostos.Priority, 5*sim.Millisecond
	st, err := baseline.NewStack(opt, 1, osCfg, nil, set, circs,
		baseline.NewManager("overlay", resident), nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("resident control circuit %v downloaded at boot in %v\n", resident, st.InitCost)
	if err := st.Run(set); err != nil {
		log.Fatal(err)
	}
	osim, e, om := st.OS, st.Engines[0], st.Mgr.(*core.OverlayManager)

	fmt.Println()
	fmt.Printf("%-10s %-4s %12s %12s %12s %9s\n", "task", "prio", "turnaround", "hw", "overhead", "preempts")
	for _, t := range osim.Tasks() {
		fmt.Printf("%-10s %-4d %12v %12v %12v %9d\n",
			t.Name, t.Priority, t.Turnaround(), t.HWTime, t.Overhead, t.Preemptions)
	}
	fmt.Println()
	fmt.Printf("overlay swaps: %d loads after boot, %d evictions; overlay now holds %q\n",
		e.M.Loads.Value()-int64(len(resident)), e.M.Evictions.Value(), om.OverlayCircuit())
	fmt.Println()
	fmt.Println("reading: the control loop never pays reconfiguration (resident hit),")
	fmt.Println("and preemptive priority keeps its turnaround tight while diagnosis")
	fmt.Println("and tuning alternate through the overlay area.")
}
