// External tests of the fabric-config pass over really compiled devices:
// compile imports lint, so these cannot live in package lint.
package lint_test

import (
	"testing"

	"repro/internal/bitstream"
	"repro/internal/compile"
	"repro/internal/fabric"
	"repro/internal/lint"
	"repro/internal/netlist"
)

var fabricConfigOnly = lint.Options{Passes: []string{"fabric-config"}}

// configuredDevice applies n copies of the compiled alu8 strip side by
// side on a device wide enough to hold them.
func configuredDevice(tb testing.TB, n int) *fabric.Device {
	tb.Helper()
	g := fabric.DefaultGeometry()
	tm := fabric.DefaultTiming()
	c, err := compile.CompileStrip(netlist.MustLookup("alu8"), g.Rows, g.TracksPerChannel,
		compile.Options{Seed: 1, Timing: &tm})
	if err != nil {
		tb.Fatal(err)
	}
	w, _ := c.Footprint()
	if n*w > g.Cols || n*(c.BS.NumIn+c.BS.NumOut) > g.NumPins() {
		tb.Fatalf("%d copies of alu8 (width %d) do not fit %v", n, w, g)
	}
	d := fabric.NewDevice(g)
	pin := 0
	for i := 0; i < n; i++ {
		var bind bitstream.PinBinding
		for k := 0; k < c.BS.NumIn; k++ {
			bind.In = append(bind.In, pin)
			pin++
		}
		for k := 0; k < c.BS.NumOut; k++ {
			bind.Out = append(bind.Out, pin)
			pin++
		}
		if _, _, err := c.BS.Apply(d, i*w, 0, &bind); err != nil {
			tb.Fatal(err)
		}
	}
	return d
}

// Device.Check, which the pass calls, formats only errors and takes its
// working set from an earlier call, so a repeat audit of a clean device
// allocates what lint.Run does — the named pass list and the one
// Reporter — whatever the number of configured CLBs (11 while the pass
// made its four tables and the run a Reporter per pass, copying the pass
// list).
func TestFabricConfigCleanPathAllocs(t *testing.T) {
	allocs := func(copies int) (float64, int) {
		d := configuredDevice(t, copies)
		targets := []*lint.Target{{Name: "dev", Device: d}}
		n := testing.AllocsPerRun(20, func() {
			if diags, err := lint.Run(targets, fabricConfigOnly); err != nil || len(diags) != 0 {
				t.Fatalf("%d copies: device not clean: %v %v", copies, err, diags)
			}
		})
		return n, d.UsedCells()
	}
	one, usedOne := allocs(1)
	three, usedThree := allocs(3)
	if usedThree < 3*usedOne || usedOne == 0 {
		t.Fatalf("used CLBs: %d for one copy, %d for three", usedOne, usedThree)
	}
	if three > one {
		t.Errorf("allocations grew with used CLBs: %v at %d CLBs, %v at %d", one, usedOne, three, usedThree)
	}
	if one > 2 && !raceEnabled { // the race detector defeats escape analysis
		t.Errorf("clean pass allocates %v times, want at most 2", one)
	}
}

func BenchmarkFabricConfig(b *testing.B) {
	targets := []*lint.Target{{Name: "dev", Device: configuredDevice(b, 1)}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if diags, err := lint.Run(targets, fabricConfigOnly); err != nil || len(diags) != 0 {
			b.Fatalf("device not clean: %v %v", err, diags)
		}
	}
}
