// Multi-board virtualization — the paper's §2 outlook: "a computing
// system composed only of FPGA-based boards so that the whole system
// operation can be virtualized". The same storage workload runs on one
// big board and on four quarter-size boards managed as a single virtual
// resource by core.MultiManager.
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

func run(boards, colsEach int) error {
	cfg := workload.DefaultStorage()
	cfg.Requests = 20
	cfg.MeanInterval = 800 * sim.Microsecond
	set := workload.Storage(cfg)

	opt := core.DefaultOptions()
	opt.Geometry.Cols, opt.Geometry.Rows = colsEach, 16
	circs, err := core.CompileSet(nil, opt, set.Circuits)
	if err != nil {
		return err
	}
	osCfg := hostos.DefaultConfig()
	osCfg.TimeSlice = sim.Millisecond
	st, err := baseline.NewStack(opt, boards, osCfg, nil, set, circs, baseline.NewManager("multi", nil), nil)
	if err != nil {
		return err
	}
	if err := st.Run(set); err != nil {
		return err
	}
	osim, mm := st.OS, st.Mgr.(*core.MultiManager)
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
