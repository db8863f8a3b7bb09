// Time-sharing with state save/restore — the paper's §3 requirement that
// a preemptable sequential circuit be observable and controllable, shown
// twice:
//
//  1. at the device level, with real flip-flop values: a counter is run,
//     preempted (state read back), its region reused by another circuit,
//     then reloaded and restored — and continues from exactly where it
//     stopped;
//  2. at the OS level: two sequential tasks time-share one device under
//     round-robin, and the save/restore accounting shows no lost cycles —
//     with the merged scheduler+device timeline showing each preemption's
//     readback and each resume's restore in causal order.
package main

import (
	"fmt"
	"log"

	"repro/internal/baseline"
	"repro/internal/bitstream"
	"repro/internal/compile"
	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/hostos"
	"repro/internal/netlist"
	"repro/internal/sim"
	"repro/internal/workload"
)

func deviceLevelDemo() {
	fmt.Println("-- device level: readback / restore round trip --")
	counter := compile.MustCompile(netlist.Counter(8), compile.Options{Seed: 7})
	parity := compile.MustCompile(netlist.Parity(16), compile.Options{Seed: 8})
	dev := fabric.NewDevice(fabric.DefaultGeometry())

	bind := func(c *compile.Circuit, base int) *bitstream.PinBinding {
		b := &bitstream.PinBinding{}
		for i := 0; i < c.BS.NumIn; i++ {
			b.In = append(b.In, base+i)
		}
		for i := 0; i < c.BS.NumOut; i++ {
			b.Out = append(b.Out, base+c.BS.NumIn+i)
		}
		return b
	}
	b := bind(counter, 0)
	if _, _, err := counter.BS.Apply(dev, 0, 0, b); err != nil {
		log.Fatal(err)
	}
	dev.SetPin(b.In[0], true) // enable
	for i := 0; i < 37; i++ {
		if _, err := dev.Step(); err != nil {
			log.Fatal(err)
		}
	}
	read := func(b *bitstream.PinBinding) uint64 {
		out, err := dev.Eval()
		if err != nil {
			log.Fatal(err)
		}
		var v uint64
		for i := 0; i < 8; i++ {
			if out[b.Out[i]] {
				v |= 1 << uint(i)
			}
		}
		return v
	}
	fmt.Printf("counter ran 37 cycles, value = %d\n", read(b))

	region := counter.BS.Region(0, 0)
	saved := dev.ReadRegionState(region)
	tm := fabric.DefaultTiming()
	fmt.Printf("preempt: read back %d flip-flops in %v\n", len(saved), tm.ReadbackTime(len(saved)))

	dev.ClearRegion(region)
	if _, _, err := parity.BS.Apply(dev, 0, 0, bind(parity, 100)); err != nil {
		log.Fatal(err)
	}
	fmt.Println("region reused by parity16 while the counter task was switched out")

	dev.ClearRegion(parity.BS.Region(0, 0))
	if _, _, err := counter.BS.Apply(dev, 0, 0, b); err != nil {
		log.Fatal(err)
	}
	dev.WriteRegionState(region, saved)
	dev.SetPin(b.In[0], true)
	fmt.Printf("resume: reloaded + restored, value = %d (continues from 37)\n\n", read(b))
}

func osLevelDemo() {
	fmt.Println("-- OS level: two sequential tasks time-share the device --")
	opt := core.DefaultOptions()
	opt.Geometry = fabric.Geometry{Cols: 16, Rows: 16, TracksPerChannel: 12, PinsPerSide: 32}
	opt.State = core.SaveRestore
	metronome := hostos.FPGARequest{Circuit: "counter8", Cycles: 300_000}
	integrator := hostos.FPGARequest{Circuit: "acc8", Cycles: 300_000}
	set := &workload.Set{
		Tasks: []workload.TaskSpec{
			{Name: "metronome", Program: []hostos.Op{hostos.UseFPGA(&metronome)}},
			{Name: "integrator", Program: []hostos.Op{hostos.UseFPGA(&integrator)}},
		},
		Circuits: []*netlist.Netlist{netlist.Counter(8), netlist.Accumulator(8)},
	}
	circs, err := core.CompileSet(nil, opt, set.Circuits)
	if err != nil {
		log.Fatal(err)
	}
	osCfg := hostos.DefaultConfig()
	osCfg.TimeSlice = 2 * sim.Millisecond
	st, err := baseline.NewStack(opt, 1, osCfg, nil, set, circs, baseline.NewManager("dynamic"), nil)
	if err != nil {
		log.Fatal(err)
	}
	st.Trace()
	if err := st.Run(set); err != nil {
		log.Fatal(err)
	}
	osim, e := st.OS, st.Engines[0]
	circuitOf := map[string]string{"metronome": "counter8", "integrator": "acc8"}
	for _, t := range osim.Tasks() {
		pure := sim.Time(300_000) * e.Lib[circuitOf[t.Name]].ClockPeriod
		fmt.Printf("%-11s hw=%v (pure %v, lost %v), overhead=%v, preemptions=%d\n",
			t.Name, t.HWTime, pure, t.HWTime-pure, t.Overhead, t.Preemptions)
	}
	fmt.Printf("manager: %d loads, %d readbacks, %d restores — every preemption saved state\n",
		e.M.Loads, e.M.Readbacks, e.M.Restores)

	// The merged timeline interleaves both layers: each scheduler decision
	// (sched) followed by the device work it caused (device).
	tl := st.Timeline()
	const show = 24
	fmt.Printf("\nmerged scheduler+device timeline (first %d of %d events):\n", show, len(tl.Events))
	head := *tl
	if len(head.Events) > show {
		head.Events = head.Events[:show]
	}
	fmt.Print(head.String())
}

func main() {
	deviceLevelDemo()
	osLevelDemo()
}
