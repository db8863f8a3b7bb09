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

func run(name string, cols int, mk func(*sim.Kernel, *core.Engine, *workload.Set) (hostos.FPGA, error)) error {
	set := workload.Multimedia(workload.DefaultMultimedia())
	opt := core.DefaultOptions()
	opt.Geometry.Cols, opt.Geometry.Rows = cols, 16
	k := sim.New()
	e := core.NewEngine(opt)
	for _, nl := range set.Circuits {
		if err := e.AddCircuit(nl); err != nil {
			return err
		}
	}
	mgr, err := mk(k, e, set)
	if err != nil {
		return err
	}
	osim := hostos.New(k, hostos.Config{
		Policy: hostos.RR, TimeSlice: 5 * sim.Millisecond,
		CtxSwitch: 50 * sim.Microsecond, Syscall: 10 * sim.Microsecond,
	}, mgr)
	set.Spawn(osim)
	k.Run()
	if !osim.AllDone() {
		return fmt.Errorf("%s: unfinished tasks", name)
	}
	var mean sim.Time
	for _, t := range osim.Tasks() {
		mean += t.Turnaround() / sim.Time(len(osim.Tasks()))
	}
	fmt.Printf("%-28s cols=%-3d makespan=%-12v mean-turnaround=%-12v reloads=%d\n",
		name, cols, osim.Makespan(), mean, e.M.Loads.Value())
	return nil
}

func main() {
	fmt.Println("multimedia: 4 streams x 24 frames, codec standard switches every 8 frames")
	fmt.Println()

	// A small device: only one codec fits at a time -> dynamic loading.
	err := run("VFPGA dynamic (small)", 12, func(k *sim.Kernel, e *core.Engine, _ *workload.Set) (hostos.FPGA, error) {
		return core.NewDynamicLoader(k, e), nil
	})
	if err != nil {
		log.Fatal(err)
	}

	// The same small device with variable partitions: codecs shared by
	// several streams stay loaded side by side while they fit.
	err = run("VFPGA partitions (small)", 12, func(k *sim.Kernel, e *core.Engine, _ *workload.Set) (hostos.FPGA, error) {
		return core.NewPartitionManager(k, e, core.PartitionConfig{
			Mode: core.VariablePartitions, Fit: core.BestFit, GC: true, Rotate: true,
		})
	})
	if err != nil {
		log.Fatal(err)
	}

	// The brute-force alternative: a device big enough for all codecs.
	err = run("merged big FPGA", 32, func(k *sim.Kernel, e *core.Engine, set *workload.Set) (hostos.FPGA, error) {
		m, _, err := baseline.NewMerged(k, e, set.CircuitNames())
		return m, err
	})
	if err != nil {
		log.Fatal(err)
	}

	// And the no-FPGA null hypothesis.
	err = run("software only", 12, func(k *sim.Kernel, e *core.Engine, _ *workload.Set) (hostos.FPGA, error) {
		return baseline.NewSoftware(e, 20), nil
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println()
	fmt.Println("reading: the small VFPGA tracks the big FPGA far closer than software,")
	fmt.Println("which is the paper's cost-reduction argument for virtualization.")
}
