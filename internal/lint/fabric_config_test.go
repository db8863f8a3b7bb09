package lint

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/fabric"
	"repro/internal/rng"
)

var fcGeom = fabric.Geometry{Cols: 4, Rows: 4, TracksPerChannel: 4, PinsPerSide: 2}

func clb(useFF bool, in ...fabric.Source) fabric.CLBConfig {
	cfg := fabric.CLBConfig{Used: true, UseFF: useFF}
	copy(cfg.Inputs[:], in)
	return cfg
}

// brokenDevices is the table the fabric-config pass is pinned against:
// each device is broken in a known way, and want holds the pass's
// diagnostics exactly as the map-and-Sprintf implementation this pass
// replaced rendered them — text and order.
var brokenDevices = []struct {
	name  string
	build func(d *fabric.Device)
	want  []string
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
		want: []string{
			"error: fabric-config: dev: CLB (1,2) input 0: reads CLB (4,0) outside device 4x4/8pin",
			"error: fabric-config: dev: CLB (1,2) input 1: reads CLB (0,-1) outside device 4x4/8pin",
		},
	},
	{
		name: "unconfigured CLB",
		build: func(d *fabric.Device) {
			d.WriteCLB(0, 0, clb(false, fabric.Source{}, fabric.Source{}, fabric.Source{}, fabric.CLBSource(2, 2)))
		},
		want: []string{
			"error: fabric-config: dev: CLB (0,0) input 3: reads unconfigured CLB (2,2)",
		},
	},
	{
		name: "pins outside the device and not inputs",
		build: func(d *fabric.Device) {
			d.WritePin(3, fabric.PinConfig{Mode: fabric.PinOutput, Driver: fabric.ConstSource(true)})
			d.WriteCLB(3, 3, clb(false, fabric.PinSource(8), fabric.PinSource(-1), fabric.PinSource(3), fabric.PinSource(2)))
		},
		want: []string{
			"error: fabric-config: dev: CLB (3,3) input 0: reads pin 8 outside device 4x4/8pin",
			"error: fabric-config: dev: CLB (3,3) input 1: reads pin -1 outside device 4x4/8pin",
			"error: fabric-config: dev: CLB (3,3) input 2: reads pin 3 which is not configured as an input",
			"error: fabric-config: dev: CLB (3,3) input 3: reads pin 2 which is not configured as an input",
		},
	},
	{
		name: "unknown source kind",
		build: func(d *fabric.Device) {
			d.WriteCLB(2, 1, clb(false, fabric.Source{Kind: 9}))
		},
		want: []string{
			"error: fabric-config: dev: CLB (2,1) input 0: unknown source kind 9",
		},
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
		want: []string{
			"error: fabric-config: dev: output pin 2: reads unconfigured CLB (1,1)",
			"error: fabric-config: dev: output pin 4: unknown source kind 7",
			"error: fabric-config: dev: output pin 6: reads pin 5 which is not configured as an input",
		},
	},
	{
		name: "two-CLB loop beside a clean CLB",
		build: func(d *fabric.Device) {
			d.WriteCLB(0, 0, clb(false, fabric.CLBSource(1, 0)))
			d.WriteCLB(1, 0, clb(false, fabric.CLBSource(0, 0)))
			d.WriteCLB(3, 1, clb(false, fabric.ConstSource(true)))
		},
		want: []string{
			"error: fabric-config: dev: logic: configured fabric contains a combinational loop (2 of 3 CLBs unordered)",
		},
	},
	{
		name: "loop with a downstream cone, doubled edge",
		build: func(d *fabric.Device) {
			d.WriteCLB(2, 2, clb(false, fabric.CLBSource(2, 2), fabric.CLBSource(2, 2)))
			d.WriteCLB(2, 3, clb(false, fabric.CLBSource(2, 2)))
			d.WriteCLB(3, 3, clb(false, fabric.CLBSource(2, 3), fabric.CLBSource(0, 1)))
			d.WriteCLB(0, 1, clb(false))
		},
		want: []string{
			"error: fabric-config: dev: logic: configured fabric contains a combinational loop (3 of 4 CLBs unordered)",
		},
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
		want: []string{
			"error: fabric-config: dev: CLB (0,1) input 0: reads unconfigured CLB (1,1)",
			"error: fabric-config: dev: CLB (0,3) input 1: reads pin 1 which is not configured as an input",
			"error: fabric-config: dev: output pin 0: reads CLB (9,9) outside device 4x4/8pin",
			"error: fabric-config: dev: logic: configured fabric contains a combinational loop (2 of 3 CLBs unordered)",
		},
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
			if strings.Join(got, "\n") != strings.Join(tc.want, "\n") {
				t.Errorf("diagnostics differ\n got:\n%s\nwant:\n%s",
					strings.Join(got, "\n"), strings.Join(tc.want, "\n"))
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

// The pass's loop check against the fabric's own evaluator: both sort
// with flat.Order, each over the edges it lists itself (the pass from the
// CLB states it read, fabric.combOrder from the configuration RAM), so
// this pins that the two edge lists agree. On random dangling-free
// configurations — acyclic by construction, with a loop planted, or wired
// at random — the pass reports a combinational loop exactly when
// Device.Eval refuses the device for one, and counts the same CLBs.
func TestFabricConfigLoopMatchesEvaluator(t *testing.T) {
	g := fabric.Geometry{Cols: 6, Rows: 5, TracksPerChannel: 4, PinsPerSide: 2}
	src := rng.New(23)
	loops, clean := 0, 0
	for trial := 0; trial < 600; trial++ {
		d := fabric.NewDevice(g)
		var used [][2]int
		for x := 0; x < g.Cols; x++ {
			for y := 0; y < g.Rows; y++ {
				if src.Float64() < 0.6 {
					used = append(used, [2]int{x, y})
				}
			}
		}
		if len(used) < 2 {
			continue
		}
		shape := trial % 3 // 0: acyclic, 1: acyclic with a planted loop, 2: wired at random
		cfgs := make([]fabric.CLBConfig, len(used))
		for i := range cfgs {
			cfgs[i] = fabric.CLBConfig{Used: true, UseFF: src.Float64() < 0.25}
			for k := range cfgs[i].Inputs {
				switch from := len(used); {
				case src.Float64() < 0.4:
					cfgs[i].Inputs[k] = fabric.ConstSource(src.Bool())
				case shape != 2 && i == 0:
					// acyclic: the first CLB has no earlier one to read
				default:
					if shape != 2 {
						from = i // only earlier CLBs: a DAG
					}
					j := src.Intn(from)
					cfgs[i].Inputs[k] = fabric.CLBSource(used[j][0], used[j][1])
				}
			}
		}
		if shape == 1 {
			// Close a ring through two combinational CLBs.
			a, b := src.Intn(len(used)), src.Intn(len(used))
			cfgs[a].UseFF, cfgs[b].UseFF = false, false
			cfgs[a].Inputs[src.Intn(fabric.LUTInputs)] = fabric.CLBSource(used[b][0], used[b][1])
			cfgs[b].Inputs[src.Intn(fabric.LUTInputs)] = fabric.CLBSource(used[a][0], used[a][1])
		}
		for i, at := range used {
			d.WriteCLB(at[0], at[1], cfgs[i])
		}

		_, evalErr := d.Eval()
		diags := only(t, "fabric-config", &Target{Name: "dev", Device: d})
		switch {
		case evalErr == nil && len(diags) == 0:
			clean++
		case evalErr != nil && len(diags) == 1:
			loops++
			// "(N of M CLBs unordered)" here, "(M-N of M CLBs ordered)" there.
			var unordered, ordered, of1, of2 int
			if _, err := fmt.Sscanf(diags[0].Msg, "configured fabric contains a combinational loop (%d of %d CLBs unordered)", &unordered, &of1); err != nil {
				t.Fatalf("trial %d: unexpected diagnostic %q", trial, diags[0])
			}
			if _, err := fmt.Sscanf(evalErr.Error(), "fabric: configured logic contains a combinational loop (%d of %d CLBs ordered)", &ordered, &of2); err != nil {
				t.Fatalf("trial %d: unexpected Eval error %q", trial, evalErr)
			}
			if of1 != of2 || unordered+ordered != of1 {
				t.Fatalf("trial %d: pass says %q, evaluator %q", trial, diags[0].Msg, evalErr)
			}
		default:
			t.Fatalf("trial %d (shape %d): evaluator says %v, pass says %v", trial, shape, evalErr, diags)
		}
		if shape == 0 && evalErr != nil {
			t.Fatalf("trial %d: acyclic by construction, evaluator says %v", trial, evalErr)
		}
		if shape == 1 && evalErr == nil {
			t.Fatalf("trial %d: planted loop not found", trial)
		}
	}
	if loops < 100 || clean < 100 {
		t.Fatalf("%d looped and %d clean devices: the generator no longer covers both", loops, clean)
	}
}
