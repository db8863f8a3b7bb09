package fabric

import "testing"

var fcGeom = Geometry{Cols: 4, Rows: 4, TracksPerChannel: 4, PinsPerSide: 2}

func clb(useFF bool, in ...Source) CLBConfig {
	cfg := CLBConfig{Used: true, UseFF: useFF}
	copy(cfg.Inputs[:], in)
	return cfg
}

// brokenDevices is the table Check's error text is pinned against: each
// device is broken in a known way, and want holds the error Check
// returns for it, the first rule the device breaks in Check's order (CLB
// inputs in scan order, then output pins, then the loop); "" for a clean
// device.
var brokenDevices = []struct {
	name  string
	build func(d *Device)
	want  string
}{
	{
		name: "clean chain through an input pin",
		build: func(d *Device) {
			d.WritePin(0, PinConfig{Mode: PinInput})
			d.WriteCLB(0, 0, clb(false, PinSource(0), ConstSource(true)))
			d.WriteCLB(1, 0, clb(false, CLBSource(0, 0), ConstSource(false)))
			d.WritePin(1, PinConfig{Mode: PinOutput, Driver: CLBSource(1, 0)})
		},
	},
	{
		name: "CLB outside the device",
		build: func(d *Device) {
			d.WriteCLB(1, 2, clb(false, CLBSource(4, 0), CLBSource(0, -1)))
		},
		want: "CLB (1,2) input 0: reads CLB (4,0) outside device 4x4/8pin",
	},
	{
		name: "unconfigured CLB",
		build: func(d *Device) {
			d.WriteCLB(0, 0, clb(false, Source{}, Source{}, Source{}, CLBSource(2, 2)))
		},
		want: "CLB (0,0) input 3: reads unconfigured CLB (2,2)",
	},
	{
		name: "pins outside the device and not inputs",
		build: func(d *Device) {
			d.WritePin(3, PinConfig{Mode: PinOutput, Driver: ConstSource(true)})
			d.WriteCLB(3, 3, clb(false, PinSource(8), PinSource(-1), PinSource(3), PinSource(2)))
		},
		want: "CLB (3,3) input 0: reads pin 8 outside device 4x4/8pin",
	},
	{
		name: "unknown source kind",
		build: func(d *Device) {
			d.WriteCLB(2, 1, clb(false, Source{Kind: 9}))
		},
		want: "CLB (2,1) input 0: unknown source kind 9",
	},
	{
		name: "output pins with dangling drivers",
		build: func(d *Device) {
			d.WritePin(7, PinConfig{Mode: PinInput})
			d.WritePin(5, PinConfig{Mode: PinOutput, Driver: PinSource(7)})
			d.WritePin(6, PinConfig{Mode: PinOutput, Driver: PinSource(5)})
			d.WritePin(2, PinConfig{Mode: PinOutput, Driver: CLBSource(1, 1)})
			d.WritePin(4, PinConfig{Mode: PinOutput, Driver: Source{Kind: 7}})
		},
		want: "output pin 2: reads unconfigured CLB (1,1)",
	},
	{
		name: "two-CLB loop beside a clean CLB",
		build: func(d *Device) {
			d.WriteCLB(0, 0, clb(false, CLBSource(1, 0)))
			d.WriteCLB(1, 0, clb(false, CLBSource(0, 0)))
			d.WriteCLB(3, 1, clb(false, ConstSource(true)))
		},
		want: "logic: configured fabric contains a combinational loop (2 of 3 CLBs unordered)",
	},
	{
		name: "loop with a downstream cone, doubled edge",
		build: func(d *Device) {
			d.WriteCLB(2, 2, clb(false, CLBSource(2, 2), CLBSource(2, 2)))
			d.WriteCLB(2, 3, clb(false, CLBSource(2, 2)))
			d.WriteCLB(3, 3, clb(false, CLBSource(2, 3), CLBSource(0, 1)))
			d.WriteCLB(0, 1, clb(false))
		},
		want: "logic: configured fabric contains a combinational loop (3 of 4 CLBs unordered)",
	},
	// One fault each: every line the rows above reported before a
	// device yielded only its first.
	{
		name: "CLB below the device",
		build: func(d *Device) {
			d.WriteCLB(1, 2, clb(false, CLBSource(0, -1)))
		},
		want: "CLB (1,2) input 0: reads CLB (0,-1) outside device 4x4/8pin",
	},
	{
		name: "pin below the device",
		build: func(d *Device) {
			d.WriteCLB(3, 3, clb(false, ConstSource(false), PinSource(-1)))
		},
		want: "CLB (3,3) input 1: reads pin -1 outside device 4x4/8pin",
	},
	{
		name: "pin configured as an output",
		build: func(d *Device) {
			d.WritePin(3, PinConfig{Mode: PinOutput, Driver: ConstSource(true)})
			d.WriteCLB(3, 3, clb(false, ConstSource(false), ConstSource(false), PinSource(3)))
		},
		want: "CLB (3,3) input 2: reads pin 3 which is not configured as an input",
	},
	{
		name: "output pin of an unknown source kind",
		build: func(d *Device) {
			d.WritePin(4, PinConfig{Mode: PinOutput, Driver: Source{Kind: 7}})
		},
		want: "output pin 4: unknown source kind 7",
	},
	{
		name: "output pin reading an output pin",
		build: func(d *Device) {
			d.WritePin(7, PinConfig{Mode: PinInput})
			d.WritePin(5, PinConfig{Mode: PinOutput, Driver: PinSource(7)})
			d.WritePin(6, PinConfig{Mode: PinOutput, Driver: PinSource(5)})
		},
		want: "output pin 6: reads pin 5 which is not configured as an input",
	},
	{
		name: "output pin reading a CLB off the device",
		build: func(d *Device) {
			d.WritePin(0, PinConfig{Mode: PinOutput, Driver: CLBSource(9, 9)})
		},
		want: "output pin 0: reads CLB (9,9) outside device 4x4/8pin",
	},
	{
		name: "a dangling output pin before a loop",
		build: func(d *Device) {
			d.WriteCLB(0, 0, clb(false, CLBSource(0, 0)))
			d.WritePin(7, PinConfig{Mode: PinOutput, Driver: PinSource(6)})
		},
		want: "output pin 7: reads pin 6 which is not configured as an input",
	},
	{
		name: "register breaks the loop",
		build: func(d *Device) {
			d.WriteCLB(0, 0, clb(false, CLBSource(1, 0)))
			d.WriteCLB(1, 0, clb(true, CLBSource(0, 0)))
		},
	},
	{
		name: "everything at once, in scan order",
		build: func(d *Device) {
			d.WriteCLB(3, 0, clb(false, CLBSource(0, 3)))
			d.WriteCLB(0, 3, clb(false, CLBSource(3, 0), PinSource(1)))
			d.WriteCLB(0, 1, clb(false, CLBSource(1, 1)))
			d.WritePin(0, PinConfig{Mode: PinOutput, Driver: CLBSource(9, 9)})
		},
		want: "CLB (0,1) input 0: reads unconfigured CLB (1,1)",
	},
	// A CLB breaking two rules names the first; mending it uncovers the
	// second.
	{
		name: "unconfigured CLB before a pin not an input",
		build: func(d *Device) {
			d.WriteCLB(0, 0, clb(false, CLBSource(2, 2), PinSource(1)))
		},
		want: "CLB (0,0) input 0: reads unconfigured CLB (2,2)",
	},
	{
		name: "pin not an input once the CLB read is configured",
		build: func(d *Device) {
			d.WriteCLB(0, 0, clb(false, CLBSource(2, 2), PinSource(1)))
			d.WriteCLB(2, 2, clb(false))
		},
		want: "CLB (0,0) input 1: reads pin 1 which is not configured as an input",
	},
	{
		name: "two-CLB loop",
		build: func(d *Device) {
			d.WriteCLB(0, 0, clb(false, CLBSource(1, 0)))
			d.WriteCLB(1, 0, clb(false, CLBSource(0, 0)))
		},
		want: "logic: configured fabric contains a combinational loop (2 of 2 CLBs unordered)",
	},
}

func TestCheckErrorsPinned(t *testing.T) {
	for _, tc := range brokenDevices {
		t.Run(tc.name, func(t *testing.T) {
			d := NewDevice(fcGeom)
			tc.build(d)
			got := ""
			if err := d.Check(); err != nil {
				got = err.Error()
			}
			if got != tc.want {
				t.Errorf("Check() = %q, want %q", got, tc.want)
			}
		})
	}
}
