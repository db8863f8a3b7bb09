// Multimedia codec switching — the paper's first §5 scenario: several
// media streams, each needing a different compression/decompression
// datapath, share one small FPGA through dynamic loading. Compare what
// the same workload costs in software or on a device big enough to hold
// every codec at once.
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

func run(name string, cols int, manager string) error {
	set := workload.Multimedia(workload.DefaultMultimedia())
	opt := core.DefaultOptions()
	opt.Geometry.Cols, opt.Geometry.Rows = cols, 16
	circs, err := core.CompileSet(nil, opt, set.Circuits)
	if err != nil {
		return err
	}
	osCfg := hostos.DefaultConfig()
	osCfg.TimeSlice = 5 * sim.Millisecond
	st, err := baseline.NewStack(opt, 1, osCfg, nil, set, circs,
		baseline.NewManager(manager, set.CircuitNames()), nil)
	if err != nil {
		return err
	}
	if err := st.Run(set); err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	var mean sim.Time
	for _, t := range st.OS.Tasks() {
		mean += t.Turnaround() / sim.Time(len(st.OS.Tasks()))
	}
	fmt.Printf("%-28s cols=%-3d makespan=%-12v mean-turnaround=%-12v reloads=%d\n",
		name, cols, st.OS.Makespan(), mean, st.Engines[0].M.Loads.Value())
	return nil
}

func main() {
	fmt.Println("multimedia: 4 streams x 24 frames, codec standard switches every 8 frames")
	fmt.Println()

	for _, r := range []struct {
		name    string
		cols    int
		manager string
	}{
		// A small device: only one codec fits at a time -> dynamic loading.
		{"VFPGA dynamic (small)", 12, "dynamic"},
		// The same small device with variable partitions: codecs shared by
		// several streams stay loaded side by side while they fit.
		{"VFPGA partitions (small)", 12, "partition"},
		// The brute-force alternative: a device big enough for all codecs.
		{"merged big FPGA", 32, "merged"},
		// And the no-FPGA null hypothesis, at a 20x slowdown.
		{"software only", 12, "software"},
	} {
		if err := run(r.name, r.cols, r.manager); err != nil {
			log.Fatal(err)
		}
	}

	fmt.Println()
	fmt.Println("reading: the small VFPGA tracks the big FPGA far closer than software,")
	fmt.Println("which is the paper's cost-reduction argument for virtualization.")
}
