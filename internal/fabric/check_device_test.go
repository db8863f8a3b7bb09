// External tests of Device.Check over really compiled devices: compile
// imports fabric, so these cannot live in package fabric.
package fabric_test

import (
	"testing"

	"repro/internal/bitstream"
	"repro/internal/compile"
	"repro/internal/fabric"
	"repro/internal/netlist"
)

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

// Check formats only errors and takes its working set from an earlier
// call, so a repeat check of a clean device allocates nothing, whatever
// the number of configured CLBs (2 while lint's fabric-config pass called
// it through a pass list and a Reporter, 11 while the pass made its four
// tables and the run a Reporter per pass).
func TestCheckCleanPathAllocs(t *testing.T) {
	if fabric.RaceEnabled {
		t.Skip("the race detector defeats escape analysis")
	}
	allocs := func(copies int) (float64, int) {
		d := configuredDevice(t, copies)
		n := testing.AllocsPerRun(20, func() {
			if err := d.Check(); err != nil {
				t.Fatalf("%d copies: device not clean: %v", copies, err)
			}
		})
		return n, d.UsedCells()
	}
	one, usedOne := allocs(1)
	three, usedThree := allocs(3)
	if usedThree < 3*usedOne || usedOne == 0 {
		t.Fatalf("used CLBs: %d for one copy, %d for three", usedOne, usedThree)
	}
	if one != 0 || three != 0 {
		t.Errorf("a clean check allocates %v times at %d CLBs and %v at %d, want 0", one, usedOne, three, usedThree)
	}
}

func BenchmarkCheck(b *testing.B) {
	d := configuredDevice(b, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := d.Check(); err != nil {
			b.Fatalf("device not clean: %v", err)
		}
	}
}
