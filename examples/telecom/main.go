// Telecom protocol adaptation — the paper's §5 scenario: communication
// sessions arrive over time, each speaking one protocol (framing CRC,
// scrambler, modulation mapper). Sessions share the FPGA through
// variable partitions; when the device fills up, later sessions suspend
// until space frees — the paper's §4 waiting-state mechanics.
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
	cfg := workload.DefaultTelecom()
	cfg.Sessions = 16
	cfg.MeanInterval = 500 * sim.Microsecond // a burst of arrivals
	set := workload.Telecom(cfg)

	opt := core.DefaultOptions()
	opt.Geometry.Cols, opt.Geometry.Rows = 2, 16 // deliberately tight
	fmt.Printf("device: %v; compiling %d protocol engines\n", opt.Geometry, len(set.Circuits))
	circs, err := core.CompileSet(nil, opt, set.Circuits)
	if err != nil {
		log.Fatal(err)
	}
	for _, c := range circs {
		fmt.Printf("  %-12s %2d cols, %3d cells, clock %v\n", c.Name, c.BS.W, c.Cells(), c.ClockPeriod)
	}

	// No rotation: a session keeps its partition until it ends, so excess
	// sessions suspend — the paper's waiting-state behaviour.
	osCfg := hostos.DefaultConfig()
	osCfg.TimeSlice = 2 * sim.Millisecond
	st, err := baseline.NewStack(opt, 1, osCfg, nil, set, circs, baseline.Partition(core.PartitionConfig{
		Mode: core.VariablePartitions, Fit: core.BestFit, GC: true,
	}), nil)
	if err != nil {
		log.Fatal(err)
	}
	if err := st.Run(set); err != nil {
		log.Fatal(err)
	}
	osim, e, pm := st.OS, st.Engines[0], st.Mgr.(*core.PartitionManager)

	fmt.Println()
	fmt.Printf("%-10s %-9s %12s %12s %12s\n", "session", "arrival", "turnaround", "blocked", "overhead")
	for _, t := range osim.Tasks() {
		fmt.Printf("%-10s %-9v %12v %12v %12v\n",
			t.Name, t.Created, t.Turnaround(), t.BlockWait, t.Overhead)
	}
	fmt.Println()
	fmt.Printf("makespan %v; %d suspensions, %d loads, %d evictions, %d GC runs (%d relocations)\n",
		osim.Makespan(), e.M.Blocks, e.M.Loads, e.M.Evictions, e.M.GCRuns, e.M.Relocations)
	total, largest := pm.FreeCols()
	fmt.Printf("final free space: %d cols (largest strip %d) — all partitions merged back\n", total, largest)
	fmt.Println()
	fmt.Println("reading: popular protocols stay resident in their partitions across")
	fmt.Println("sessions; suspensions appear only while the 2-column device is full.")
}
