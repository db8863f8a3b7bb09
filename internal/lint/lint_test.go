package lint

import (
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/bitstream"
	"repro/internal/fabric"
	"repro/internal/netlist"
	"repro/internal/rng"
)

// only runs a single pass over a single target.
func only(t *testing.T, pass string, target *Target) []Diagnostic {
	t.Helper()
	diags, err := Run([]*Target{target}, Options{Passes: []string{pass}})
	if err != nil {
		t.Fatalf("Run(%s): %v", pass, err)
	}
	return diags
}

func wantDiag(t *testing.T, diags []Diagnostic, sev Severity, msgFragment string) {
	t.Helper()
	for _, d := range diags {
		if d.Severity == sev && strings.Contains(d.Msg, msgFragment) {
			return
		}
	}
	t.Fatalf("no %v diagnostic containing %q in %v", sev, msgFragment, diags)
}

func wantNone(t *testing.T, diags []Diagnostic) {
	t.Helper()
	if len(diags) != 0 {
		t.Fatalf("expected no diagnostics, got %v", diags)
	}
}

func TestNetDriveDanglingAndUnused(t *testing.T) {
	b := netlist.NewBuilder("dangle")
	a := b.Input("a")
	b.Input("b") // never read
	b.Not(a)     // never consumed
	b.Output("y", a)
	diags := only(t, "net-drive", &Target{Netlist: b.MustBuild()})
	wantDiag(t, diags, Warning, "unused input port")
	wantDiag(t, diags, Warning, "dangling net")
}

func TestNetDriveMultiplyDrivenPort(t *testing.T) {
	b := netlist.NewBuilder("dup")
	b.Output("a", b.Input("a")) // one net name, two drivers
	diags := only(t, "net-drive", &Target{Netlist: b.MustBuild()})
	wantDiag(t, diags, Error, "multiply-driven net")
}

func TestPortWidthMismatch(t *testing.T) {
	b := netlist.NewBuilder("bus")
	d0 := b.Input("d[0]")
	d2 := b.Input("d[2]") // d[1] missing
	b.Output("q[0]", d0)
	b.Output("q[1]", d2)
	b.Output("q[01]", d0) // bit 1 again
	b.Output("q", d2)     // scalar aliases the bus
	diags := only(t, "port-width", &Target{Netlist: b.MustBuild()})
	wantDiag(t, diags, Error, "bit(s) 1 missing")
	wantDiag(t, diags, Error, "declared 2 times")
	wantDiag(t, diags, Error, "aliases bus bits")
}

func TestPortWidthSegmentChain(t *testing.T) {
	orig := netlist.Adder(8)
	stages, err := netlist.Segment(orig, 3)
	if err != nil {
		t.Fatal(err)
	}
	wantNone(t, only(t, "port-width", &Target{Netlist: orig, Segments: stages}))

	// Drop the first stage: later stages now import wires nobody makes.
	broken := only(t, "port-width", &Target{Netlist: orig, Segments: stages[1:]})
	wantDiag(t, broken, Error, "no earlier stage exports")
}

func TestDeadLogicDetected(t *testing.T) {
	b := netlist.NewBuilder("dead")
	a := b.Input("a")
	b.Not(b.Not(a)) // nodes 1 and 2: the second is consumed by nothing
	b.Output("y", a)
	diags := only(t, "dead-logic", &Target{Netlist: b.MustBuild()})
	wantDiag(t, diags, Warning, "dead logic")
	if len(diags) != 2 {
		t.Fatalf("want exactly nodes 1 and 2 flagged, got %v", diags)
	}
}

func TestSeqPreemptUnobservableState(t *testing.T) {
	// A DFF that never reaches an output: dead, unobservable state.
	b := netlist.NewBuilder("hidden")
	d := b.Input("d")
	b.DFF(d, false)
	b.Output("y", d) // output bypasses the DFF
	diags := only(t, "seq-preempt", &Target{Netlist: b.MustBuild()})
	wantDiag(t, diags, Warning, "not observable")
	wantDiag(t, diags, Warning, "not fully preemptable")
}

func TestSeqPreemptBitstreamStateVolume(t *testing.T) {
	// A sequential netlist whose bitstream carries no state at all.
	b := netlist.NewBuilder("seq")
	b.Output("y", b.DFF(b.Input("d"), false))
	nl := b.MustBuild()
	bs := &bitstream.Bitstream{
		Name: "b", W: 1, H: 1, NumIn: 0, NumOut: 1,
		Cells:      []bitstream.CellWrite{{X: 0, Y: 0}},
		OutDrivers: []bitstream.Src{{Kind: bitstream.SrcRel}},
	}
	diags := only(t, "seq-preempt", &Target{Netlist: nl, Bitstream: bs})
	wantDiag(t, diags, Error, "state cannot be read back")
}

// twoCellBitstream is a valid 2x2 design: a registered cell fed by the
// input port, chained into a second cell that drives the output. Cells
// (0,1) and (1,1) are in the region but unwritten.
func twoCellBitstream() *bitstream.Bitstream {
	return &bitstream.Bitstream{
		Name: "b", W: 2, H: 2, NumIn: 1, NumOut: 1,
		Cells: []bitstream.CellWrite{
			{X: 0, Y: 0, UseFF: true, Inputs: [fabric.LUTInputs]bitstream.Src{{Kind: bitstream.SrcPort, Port: 0}}},
			{X: 1, Y: 0, Inputs: [fabric.LUTInputs]bitstream.Src{{Kind: bitstream.SrcRel, DX: 0, DY: 0}}},
		},
		OutDrivers: []bitstream.Src{{Kind: bitstream.SrcRel, DX: 1, DY: 0}},
		FFCells:    1,
	}
}

// TestBitstreamBounds breaks one rule at a time in a valid bitstream:
// each fault must yield exactly one bitstream-bounds error, so every
// rule bitstream.Validate states, and each device-fit check, is
// reachable through lint.
func TestBitstreamBounds(t *testing.T) {
	wantNone(t, only(t, "bitstream-bounds", &Target{Bitstream: twoCellBitstream()}))
	tiny := fabric.Geometry{Cols: 1, Rows: 4, TracksPerChannel: 4, PinsPerSide: 2}
	pinless := fabric.Geometry{Cols: 4, Rows: 4, TracksPerChannel: 4, PinsPerSide: 0}
	rel := func(dx, dy int16) bitstream.Src { return bitstream.Src{Kind: bitstream.SrcRel, DX: dx, DY: dy} }
	for _, c := range []struct {
		name  string
		fault func(b *bitstream.Bitstream)
		geom  *fabric.Geometry
		want  string
	}{
		{"unnamed", func(b *bitstream.Bitstream) { b.Name = "" }, nil, "missing name"},
		{"empty region", func(b *bitstream.Bitstream) { b.W = 0 }, nil, "non-positive footprint 0x2"},
		{"unrepresentable footprint", func(b *bitstream.Bitstream) { b.H = fabric.MaxDim + 1 }, nil, "beyond the representable"},
		{"negative port count", func(b *bitstream.Bitstream) { b.NumOut = -1 }, nil, "negative port counts"},
		{"unrepresentable port count", func(b *bitstream.Bitstream) { b.NumIn = fabric.MaxDim + 1 }, nil, "input ports beyond the representable"},
		{"driver count", func(b *bitstream.Bitstream) { b.NumOut = 2 }, nil, "1 out drivers for 2 outputs"},
		{"cell outside region", func(b *bitstream.Bitstream) { b.Cells[1].X = 3 }, nil, "cell 1 at (3,0) outside 2x2"},
		{"cell written twice", func(b *bitstream.Bitstream) { b.Cells[1].X = 0 }, nil, "two cells at (0,0)"},
		{"FFCells lies", func(b *bitstream.Bitstream) { b.FFCells = 2 }, nil, "FFCells 2 but 1 registered cells"},
		{"source outside region", func(b *bitstream.Bitstream) { b.Cells[1].Inputs[0] = rel(5, 0) }, nil, "relative source (5,0) outside 2x2"},
		{"port out of range", func(b *bitstream.Bitstream) { b.Cells[0].Inputs[0].Port = 3 }, nil, "port source 3 outside 1 inputs"},
		{"unknown source kind", func(b *bitstream.Bitstream) { b.Cells[0].Inputs[1].Kind = 99 }, nil, "unknown source kind 99"},
		{"input reads unwritten cell", func(b *bitstream.Bitstream) { b.Cells[1].Inputs[1] = rel(1, 1) }, nil,
			"cell 1 input 1: relative source (1,1) reads a cell the bitstream does not write"},
		{"undriven output", func(b *bitstream.Bitstream) { b.OutDrivers[0] = bitstream.Src{} }, nil, "output 0 has no driver"},
		{"output reads unwritten cell", func(b *bitstream.Bitstream) { b.OutDrivers[0] = rel(0, 1) }, nil,
			"output 0: relative source (0,1) reads a cell the bitstream does not write"},
		{"negative delay", func(b *bitstream.Bitstream) { b.Delay = -1 }, nil, "negative delay"},
		{"region exceeds device", func(*bitstream.Bitstream) {}, &tiny, "2x2 region exceeds device"},
		{"ports exceed pins", func(*bitstream.Bitstream) {}, &pinless, "2 ports can never bind to 0 device pins"},
	} {
		t.Run(c.name, func(t *testing.T) {
			bs := twoCellBitstream()
			c.fault(bs)
			diags := only(t, "bitstream-bounds", &Target{Bitstream: bs, Geometry: c.geom})
			if len(diags) != 1 {
				t.Fatalf("want exactly one diagnostic, got %v", diags)
			}
			wantDiag(t, diags, Error, c.want)
		})
	}
}

func TestBitstreamBoundsDeviceExtents(t *testing.T) {
	bs := &bitstream.Bitstream{
		Name: "wide", W: 10, H: 2, NumIn: 0, NumOut: 0,
		Cells: []bitstream.CellWrite{{X: 0, Y: 0}},
	}
	g := fabric.Geometry{Cols: 4, Rows: 4, TracksPerChannel: 4, PinsPerSide: 2}
	diags := only(t, "bitstream-bounds", &Target{Bitstream: bs, Geometry: &g})
	wantDiag(t, diags, Error, "exceeds device")
}

// TestRegionStateInvariants feeds the one column-map audit its inputs:
// each case is a snapshot and the findings it must produce (none = clean).
func TestRegionStateInvariants(t *testing.T) {
	for _, c := range []struct {
		name   string
		target *Target
		want   []string
	}{
		{"sliding-clean", &Target{
			Name: "rm", Cols: 12,
			Regions: []RegionView{
				{X: 0, W: 4, Circuit: "a", Owner: "t1"},
				{X: 4, W: 3, Circuit: "b"}, // cached resident: circuit, no owner
				{X: 7, W: 5, Free: true},
			},
		}, nil},
		{"sliding-broken", &Target{
			Name: "rm", Cols: 12,
			Regions: []RegionView{
				{X: 0, W: 4, Circuit: "a", Owner: "t1"},
				{X: 3, W: 2, Circuit: "b", Owner: "t2"},             // shares column 3 with a
				{X: 6, W: 2, Free: true, Circuit: "c", Owner: "t3"}, // freed but still claimed; gap 5..5 leaked
				{X: 8, W: 2, Free: true},                            // adjacent free spans uncoalesced
				{X: 10, W: 2},                                       // occupied, no circuit
			},
		}, []string{"two regions share a column", "leaked", "still claims circuit", "still claims owner",
			"not coalesced", "names no circuit"}},
		{"sliding-must-tile", &Target{
			Name: "rm", Cols: 12,
			Regions: []RegionView{
				{X: 0, W: 4, Circuit: "a"},
				// columns 4..11 never accounted for: a sliding map has no tail.
			},
		}, []string{"must tile the device"}},
		{"fixed-clean", &Target{
			Name: "pt", Cols: 10, FixedSlots: true,
			Regions: []RegionView{
				{X: 0, W: 2, Free: true},
				{X: 2, W: 2, Free: true}, // slots never merge
				{X: 4, W: 4, Circuit: "a"},
				// columns 8..9 are the uncovered tail of the fixed table: fine.
			},
		}, nil},
		{"fixed-broken", &Target{
			Name: "pt", Cols: 10, FixedSlots: true,
			Regions: []RegionView{
				{X: 0, W: 4, Circuit: "a"},
				{X: 3, W: 2, Free: true},
				{X: 6, W: 2, Free: true},
			},
		}, []string{"two regions share a column", "inside a fixed slot table"}},
	} {
		t.Run(c.name, func(t *testing.T) {
			diags := only(t, "region-state", c.target)
			if len(c.want) == 0 {
				wantNone(t, diags)
			}
			for _, frag := range c.want {
				wantDiag(t, diags, Error, frag)
			}
		})
	}
}

func TestFabricConfig(t *testing.T) {
	g := fabric.Geometry{Cols: 4, Rows: 4, TracksPerChannel: 4, PinsPerSide: 2}
	d := fabric.NewDevice(g)
	// CLB (0,0) reads unconfigured CLB (2,2) and pin 1 (not an input).
	d.WriteCLB(0, 0, fabric.CLBConfig{Used: true, Inputs: [fabric.LUTInputs]fabric.Source{
		fabric.CLBSource(2, 2),
		fabric.PinSource(1),
	}})
	diags := only(t, "fabric-config", &Target{Device: d})
	wantDiag(t, diags, Error, "reads unconfigured CLB (2,2)")
	wantDiag(t, diags, Error, "not configured as an input")
}

func TestFabricConfigLoop(t *testing.T) {
	g := fabric.Geometry{Cols: 4, Rows: 4, TracksPerChannel: 4, PinsPerSide: 2}
	d := fabric.NewDevice(g)
	d.WriteCLB(0, 0, fabric.CLBConfig{Used: true, Inputs: [fabric.LUTInputs]fabric.Source{fabric.CLBSource(1, 0)}})
	d.WriteCLB(1, 0, fabric.CLBConfig{Used: true, Inputs: [fabric.LUTInputs]fabric.Source{fabric.CLBSource(0, 0)}})
	diags := only(t, "fabric-config", &Target{Device: d})
	wantDiag(t, diags, Error, "combinational loop")

	// Registering one of the two CLBs breaks the cycle.
	d.WriteCLB(1, 0, fabric.CLBConfig{Used: true, UseFF: true, Inputs: [fabric.LUTInputs]fabric.Source{fabric.CLBSource(0, 0)}})
	wantNone(t, only(t, "fabric-config", &Target{Device: d}))
}

func TestRunOptions(t *testing.T) {
	b := netlist.NewBuilder("dangle")
	a := b.Input("a")
	b.Not(a)
	b.Output("y", a)
	nl := b.MustBuild()
	// MinSeverity filters the dangling-net warning out.
	diags, err := Run([]*Target{{Netlist: nl}}, Options{MinSeverity: Error})
	if err != nil {
		t.Fatal(err)
	}
	wantNone(t, diags)
	// Unknown pass names are an error, not a silent no-op.
	if _, err := Run([]*Target{{Netlist: nl}}, Options{Passes: []string{"no-such-pass"}}); err == nil {
		t.Fatal("unknown pass accepted")
	}
}

func TestDiagnosticJSON(t *testing.T) {
	d := Diagnostic{Pass: "net-drive", Severity: Error, Pos: "x", Msg: "m"}
	b, err := json.Marshal(d)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), `"severity":"error"`) {
		t.Fatalf("severity not encoded by name: %s", b)
	}
	var back Diagnostic
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back != d {
		t.Fatalf("round trip: %+v != %+v", back, d)
	}
}

// TestLibraryIsClean sweeps every registry builder through every
// netlist-domain pass: the seed circuit library must carry no
// error-severity findings (warnings — genuinely dead gates, unused
// ports — are reported but tolerated).
func TestLibraryIsClean(t *testing.T) {
	for name, gen := range netlist.Registry() {
		nl := gen()
		diags := RunTarget(&Target{Netlist: nl}, Options{})
		if errs := Errors(diags); len(errs) > 0 {
			t.Errorf("%s: %d lint error(s), first: %s", name, len(errs), errs[0])
		}
	}
}

// TestRandomNetlistsAreClean fuzzes the verifier with generator-valid
// circuits: anything Build accepted must lint error-free.
func TestRandomNetlistsAreClean(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		src := rng.New(seed)
		nl := netlist.Random(src, netlist.RandomConfig{})
		if errs := Errors(RunTarget(&Target{Netlist: nl}, Options{})); len(errs) > 0 {
			t.Errorf("seed %d (%s): %s", seed, nl.Name, errs[0])
		}
	}
}
