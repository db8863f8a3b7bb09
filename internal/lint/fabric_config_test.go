package lint

import (
	"strings"
	"testing"

	"repro/internal/fabric"
)

var fcGeom = fabric.Geometry{Cols: 4, Rows: 4, TracksPerChannel: 4, PinsPerSide: 2}

func clb(useFF bool, in ...fabric.Source) fabric.CLBConfig {
	cfg := fabric.CLBConfig{Used: true, UseFF: useFF}
	copy(cfg.Inputs[:], in)
	return cfg
}

// brokenDevices is the table the fabric-config pass is pinned against:
// each device is broken in a known way, and want holds the one
// diagnostic the pass reports for it, the first rule the device breaks in
// Device.Check's order (CLB inputs in scan order, then output pins, then
// the loop), in the text the pass has always rendered it.
var brokenDevices = []struct {
	name  string
	build func(d *fabric.Device)
	want  string
}{
	{
		name: "clean chain through an input pin",
		build: func(d *fabric.Device) {
			d.WritePin(0, fabric.PinConfig{Mode: fabric.PinInput})
			d.WriteCLB(0, 0, clb(false, fabric.PinSource(0), fabric.ConstSource(true)))
			d.WriteCLB(1, 0, clb(false, fabric.CLBSource(0, 0), fabric.ConstSource(false)))
			d.WritePin(1, fabric.PinConfig{Mode: fabric.PinOutput, Driver: fabric.CLBSource(1, 0)})
		},
	},
	{
		name: "CLB outside the device",
		build: func(d *fabric.Device) {
			d.WriteCLB(1, 2, clb(false, fabric.CLBSource(4, 0), fabric.CLBSource(0, -1)))
		},
		want: "error: fabric-config: dev: CLB (1,2) input 0: reads CLB (4,0) outside device 4x4/8pin",
	},
	{
		name: "unconfigured CLB",
		build: func(d *fabric.Device) {
			d.WriteCLB(0, 0, clb(false, fabric.Source{}, fabric.Source{}, fabric.Source{}, fabric.CLBSource(2, 2)))
		},
		want: "error: fabric-config: dev: CLB (0,0) input 3: reads unconfigured CLB (2,2)",
	},
	{
		name: "pins outside the device and not inputs",
		build: func(d *fabric.Device) {
			d.WritePin(3, fabric.PinConfig{Mode: fabric.PinOutput, Driver: fabric.ConstSource(true)})
			d.WriteCLB(3, 3, clb(false, fabric.PinSource(8), fabric.PinSource(-1), fabric.PinSource(3), fabric.PinSource(2)))
		},
		want: "error: fabric-config: dev: CLB (3,3) input 0: reads pin 8 outside device 4x4/8pin",
	},
	{
		name: "unknown source kind",
		build: func(d *fabric.Device) {
			d.WriteCLB(2, 1, clb(false, fabric.Source{Kind: 9}))
		},
		want: "error: fabric-config: dev: CLB (2,1) input 0: unknown source kind 9",
	},
	{
		name: "output pins with dangling drivers",
		build: func(d *fabric.Device) {
			d.WritePin(7, fabric.PinConfig{Mode: fabric.PinInput})
			d.WritePin(5, fabric.PinConfig{Mode: fabric.PinOutput, Driver: fabric.PinSource(7)})
			d.WritePin(6, fabric.PinConfig{Mode: fabric.PinOutput, Driver: fabric.PinSource(5)})
			d.WritePin(2, fabric.PinConfig{Mode: fabric.PinOutput, Driver: fabric.CLBSource(1, 1)})
			d.WritePin(4, fabric.PinConfig{Mode: fabric.PinOutput, Driver: fabric.Source{Kind: 7}})
		},
		want: "error: fabric-config: dev: output pin 2: reads unconfigured CLB (1,1)",
	},
	{
		name: "two-CLB loop beside a clean CLB",
		build: func(d *fabric.Device) {
			d.WriteCLB(0, 0, clb(false, fabric.CLBSource(1, 0)))
			d.WriteCLB(1, 0, clb(false, fabric.CLBSource(0, 0)))
			d.WriteCLB(3, 1, clb(false, fabric.ConstSource(true)))
		},
		want: "error: fabric-config: dev: logic: configured fabric contains a combinational loop (2 of 3 CLBs unordered)",
	},
	{
		name: "loop with a downstream cone, doubled edge",
		build: func(d *fabric.Device) {
			d.WriteCLB(2, 2, clb(false, fabric.CLBSource(2, 2), fabric.CLBSource(2, 2)))
			d.WriteCLB(2, 3, clb(false, fabric.CLBSource(2, 2)))
			d.WriteCLB(3, 3, clb(false, fabric.CLBSource(2, 3), fabric.CLBSource(0, 1)))
			d.WriteCLB(0, 1, clb(false))
		},
		want: "error: fabric-config: dev: logic: configured fabric contains a combinational loop (3 of 4 CLBs unordered)",
	},
	// One fault each: every line the rows above reported before a
	// device yielded only its first.
	{
		name: "CLB below the device",
		build: func(d *fabric.Device) {
			d.WriteCLB(1, 2, clb(false, fabric.CLBSource(0, -1)))
		},
		want: "error: fabric-config: dev: CLB (1,2) input 0: reads CLB (0,-1) outside device 4x4/8pin",
	},
	{
		name: "pin below the device",
		build: func(d *fabric.Device) {
			d.WriteCLB(3, 3, clb(false, fabric.ConstSource(false), fabric.PinSource(-1)))
		},
		want: "error: fabric-config: dev: CLB (3,3) input 1: reads pin -1 outside device 4x4/8pin",
	},
	{
		name: "pin configured as an output",
		build: func(d *fabric.Device) {
			d.WritePin(3, fabric.PinConfig{Mode: fabric.PinOutput, Driver: fabric.ConstSource(true)})
			d.WriteCLB(3, 3, clb(false, fabric.ConstSource(false), fabric.ConstSource(false), fabric.PinSource(3)))
		},
		want: "error: fabric-config: dev: CLB (3,3) input 2: reads pin 3 which is not configured as an input",
	},
	{
		name: "output pin of an unknown source kind",
		build: func(d *fabric.Device) {
			d.WritePin(4, fabric.PinConfig{Mode: fabric.PinOutput, Driver: fabric.Source{Kind: 7}})
		},
		want: "error: fabric-config: dev: output pin 4: unknown source kind 7",
	},
	{
		name: "output pin reading an output pin",
		build: func(d *fabric.Device) {
			d.WritePin(7, fabric.PinConfig{Mode: fabric.PinInput})
			d.WritePin(5, fabric.PinConfig{Mode: fabric.PinOutput, Driver: fabric.PinSource(7)})
			d.WritePin(6, fabric.PinConfig{Mode: fabric.PinOutput, Driver: fabric.PinSource(5)})
		},
		want: "error: fabric-config: dev: output pin 6: reads pin 5 which is not configured as an input",
	},
	{
		name: "output pin reading a CLB off the device",
		build: func(d *fabric.Device) {
			d.WritePin(0, fabric.PinConfig{Mode: fabric.PinOutput, Driver: fabric.CLBSource(9, 9)})
		},
		want: "error: fabric-config: dev: output pin 0: reads CLB (9,9) outside device 4x4/8pin",
	},
	{
		name: "a dangling output pin before a loop",
		build: func(d *fabric.Device) {
			d.WriteCLB(0, 0, clb(false, fabric.CLBSource(0, 0)))
			d.WritePin(7, fabric.PinConfig{Mode: fabric.PinOutput, Driver: fabric.PinSource(6)})
		},
		want: "error: fabric-config: dev: output pin 7: reads pin 6 which is not configured as an input",
	},
	{
		name: "register breaks the loop",
		build: func(d *fabric.Device) {
			d.WriteCLB(0, 0, clb(false, fabric.CLBSource(1, 0)))
			d.WriteCLB(1, 0, clb(true, fabric.CLBSource(0, 0)))
		},
	},
	{
		name: "everything at once, in scan order",
		build: func(d *fabric.Device) {
			d.WriteCLB(3, 0, clb(false, fabric.CLBSource(0, 3)))
			d.WriteCLB(0, 3, clb(false, fabric.CLBSource(3, 0), fabric.PinSource(1)))
			d.WriteCLB(0, 1, clb(false, fabric.CLBSource(1, 1)))
			d.WritePin(0, fabric.PinConfig{Mode: fabric.PinOutput, Driver: fabric.CLBSource(9, 9)})
		},
		want: "error: fabric-config: dev: CLB (0,1) input 0: reads unconfigured CLB (1,1)",
	},
}

func TestFabricConfigDiagnosticsPinned(t *testing.T) {
	for _, tc := range brokenDevices {
		t.Run(tc.name, func(t *testing.T) {
			d := fabric.NewDevice(fcGeom)
			tc.build(d)
			var got []string
			for _, diag := range only(t, "fabric-config", &Target{Name: "dev", Device: d}) {
				got = append(got, diag.String())
			}
			if strings.Join(got, "\n") != tc.want {
				t.Errorf("diagnostics differ\n got: %q\nwant: %q", got, tc.want)
			}
		})
	}
	// The unnamed target falls back to "device".
	d := fabric.NewDevice(fcGeom)
	d.WriteCLB(0, 0, clb(false, fabric.CLBSource(1, 1)))
	diags := only(t, "fabric-config", &Target{Device: d})
	if want := "error: fabric-config: device: CLB (0,0) input 0: reads unconfigured CLB (1,1)"; len(diags) != 1 || diags[0].String() != want {
		t.Errorf("unnamed target: got %v, want %q", diags, want)
	}
}
