// Multi-board virtualization — the paper's §2 outlook: "a computing
// system composed only of FPGA-based boards so that the whole system
// operation can be virtualized". The same storage workload runs on one
// big board and on four quarter-size boards managed as a single virtual
// resource by core.MultiManager.
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/hostos"
	"repro/internal/sim"
	"repro/internal/workload"
)

func run(boards, colsEach int) error {
	cfg := workload.DefaultStorage()
	cfg.Requests = 20
	cfg.MeanInterval = 800 * sim.Microsecond
	set := workload.Storage(cfg)

	opt := core.DefaultOptions()
	opt.Geometry.Cols, opt.Geometry.Rows = colsEach, 16
	k := sim.New()
	var engines []*core.Engine
	for i := 0; i < boards; i++ {
		e := core.NewEngine(opt)
		for _, nl := range set.Circuits {
			if err := e.AddCircuit(nl); err != nil {
				return err
			}
		}
		engines = append(engines, e)
	}
	mm, err := core.NewMultiManager(k, engines, core.PartitionConfig{
		Mode: core.VariablePartitions, Fit: core.BestFit, GC: true, Rotate: true,
	})
	if err != nil {
		return err
	}
	osim := hostos.New(k, hostos.Config{
		Policy: hostos.RR, TimeSlice: sim.Millisecond,
		CtxSwitch: 50 * sim.Microsecond, Syscall: 10 * sim.Microsecond,
	}, mm)
	set.Spawn(osim)
	k.Run()
	if !osim.AllDone() {
		return fmt.Errorf("unfinished requests")
	}
	var mean sim.Time
	for _, t := range osim.Tasks() {
		mean += t.Turnaround() / sim.Time(len(osim.Tasks()))
	}
	perBoard := ""
	for i, b := range mm.Boards {
		if i > 0 {
			perBoard += " "
		}
		perBoard += fmt.Sprintf("%d", b.E.M.Loads.Value())
	}
	fmt.Printf("%d board(s) x %2d cols: makespan %-12v mean turnaround %-12v loads/board [%s] suspensions %d\n",
		boards, colsEach, osim.Makespan(), mean, perBoard, mm.TotalBlocks())
	return nil
}

func main() {
	fmt.Println("storage workload (20 RAID-style requests) over equal total area:")
	fmt.Println()
	for _, cfg := range []struct{ boards, cols int }{{1, 12}, {2, 6}, {4, 3}} {
		if err := run(cfg.boards, cfg.cols); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Println()
	fmt.Println("reading: several small boards behave like one device until a")
	fmt.Println("circuit no longer fits a single board — the granularity limit")
	fmt.Println("of board-level virtualization (see experiment F8).")
}
