package bitstream

import (
	"bytes"
	"reflect"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/fabric"
	"repro/internal/netlist"
	"repro/internal/place"
	"repro/internal/rng"
	"repro/internal/route"
	"repro/internal/techmap"
)

// routed compiles a library circuit through map+place+route (without the
// compile facade, which lives above this package).
func routed(t *testing.T, nl *netlist.Netlist) *route.Result {
	t.Helper()
	m, err := techmap.Map(nl)
	if err != nil {
		t.Fatal(err)
	}
	w, h := place.Shape(m.NumCells())
	p, err := place.Place(m, w, h, place.Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	r, err := route.Route(p, 12, route.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func gen(t *testing.T, nl *netlist.Netlist) *Bitstream {
	t.Helper()
	return Generate(routed(t, nl), fabric.DefaultTiming())
}

func fullBinding(b *Bitstream, base int) *PinBinding {
	pb := &PinBinding{}
	p := base
	for i := 0; i < b.NumIn; i++ {
		pb.In = append(pb.In, p)
		p++
	}
	for i := 0; i < b.NumOut; i++ {
		pb.Out = append(pb.Out, p)
		p++
	}
	return pb
}

func TestGenerateShape(t *testing.T) {
	nl := netlist.Adder(8)
	bs := gen(t, nl)
	if bs.Name != "adder8" {
		t.Fatalf("name %q", bs.Name)
	}
	if bs.NumIn != nl.NumInputs() || bs.NumOut != len(nl.Outputs) {
		t.Fatal("port counts wrong")
	}
	if bs.NumCells() == 0 || bs.FFCells != 0 {
		t.Fatalf("cells %d ff %d", bs.NumCells(), bs.FFCells)
	}
	if bs.Delay <= 0 {
		t.Fatal("no delay")
	}
	if len(bs.OutDrivers) != bs.NumOut {
		t.Fatal("out drivers wrong")
	}
	if !strings.Contains(bs.String(), "adder8") {
		t.Fatal("summary")
	}
}

func TestSequentialFFCells(t *testing.T) {
	bs := gen(t, netlist.Counter(8))
	if bs.FFCells != 8 {
		t.Fatalf("FF cells %d, want 8", bs.FFCells)
	}
}

func TestCellsStayInsideRegion(t *testing.T) {
	bs := gen(t, netlist.Multiplier(4))
	for _, cw := range bs.Cells {
		if cw.X < 0 || int(cw.X) >= bs.W || cw.Y < 0 || int(cw.Y) >= bs.H {
			t.Fatalf("cell (%d,%d) outside %dx%d", cw.X, cw.Y, bs.W, bs.H)
		}
		for _, in := range cw.Inputs {
			if in.Kind == SrcRel && (in.DX < 0 || int(in.DX) >= bs.W || in.DY < 0 || int(in.DY) >= bs.H) {
				t.Fatalf("relative source (%d,%d) outside region", in.DX, in.DY)
			}
			if in.Kind == SrcPort && (in.Port < 0 || int(in.Port) >= bs.NumIn) {
				t.Fatalf("port source %d out of range", in.Port)
			}
		}
	}
}

func TestApplyCounts(t *testing.T) {
	bs := gen(t, netlist.Adder(8))
	dev := fabric.NewDevice(fabric.DefaultGeometry())
	cells, pins, err := bs.Apply(dev, 1, 1, fullBinding(bs, 0))
	if err != nil {
		t.Fatal(err)
	}
	if cells != bs.NumCells() {
		t.Fatalf("cells written %d, want %d", cells, bs.NumCells())
	}
	if pins != bs.NumIn+bs.NumOut {
		t.Fatalf("pins written %d, want %d", pins, bs.NumIn+bs.NumOut)
	}
	if dev.UsedCells() != bs.NumCells() {
		t.Fatal("device cell count mismatch")
	}
}

func TestApplyUnboundPortsSkipped(t *testing.T) {
	// Output pins may be left unbound (-1); input ports referenced by
	// cells must be bound.
	bs := gen(t, netlist.Adder(8))
	dev := fabric.NewDevice(fabric.DefaultGeometry())
	pb := fullBinding(bs, 0)
	for i := range pb.Out {
		pb.Out[i] = -1
	}
	_, pins, err := bs.Apply(dev, 0, 0, pb)
	if err != nil {
		t.Fatal(err)
	}
	if pins != bs.NumIn {
		t.Fatalf("pins %d, want only the %d inputs", pins, bs.NumIn)
	}
}

func TestApplyUnboundInputRejected(t *testing.T) {
	bs := gen(t, netlist.Adder(8))
	dev := fabric.NewDevice(fabric.DefaultGeometry())
	pb := fullBinding(bs, 0)
	pb.In[0] = -1
	if _, _, err := bs.Apply(dev, 0, 0, pb); err == nil {
		t.Fatal("unbound referenced input accepted")
	}
}

func TestApplyOutOfBounds(t *testing.T) {
	bs := gen(t, netlist.Adder(8))
	dev := fabric.NewDevice(fabric.DefaultGeometry())
	g := dev.Geometry()
	if _, _, err := bs.Apply(dev, g.Cols-1, 0, fullBinding(bs, 0)); err == nil {
		t.Fatal("out-of-bounds apply accepted")
	}
}

// TestPagesPartitionCells holds Pages to the pagination rule over every
// registry circuit: pages numbered in order, none empty or over the page
// size, and their cells, concatenated, exactly the bitstream's cells —
// every configured cell on one page, no page writing a cell the
// bitstream does not.
func TestPagesPartitionCells(t *testing.T) {
	for name, genf := range netlist.Registry() {
		bs := gen(t, genf())
		for _, size := range []int{1, 3, 7, 16, 1000} {
			var cells []CellWrite
			for i, p := range bs.Pages(size) {
				if p.Index != i {
					t.Fatalf("%s, size %d: page index %d != %d", name, size, p.Index, i)
				}
				if len(p.Cells) == 0 || len(p.Cells) > size {
					t.Fatalf("%s, size %d: page %d has %d cells", name, size, i, len(p.Cells))
				}
				cells = append(cells, p.Cells...)
			}
			if !slices.Equal(cells, bs.Cells) {
				t.Fatalf("%s, size %d: the pages' %d cells are not the bitstream's %d", name, size, len(cells), len(bs.Cells))
			}
		}
	}
}

func TestPagesInvalidSizePanics(t *testing.T) {
	bs := gen(t, netlist.Adder(8))
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	bs.Pages(0)
}

func TestApplyPageSubset(t *testing.T) {
	bs := gen(t, netlist.ALU(8))
	dev := fabric.NewDevice(fabric.DefaultGeometry())
	pages := bs.Pages(5)
	cells, pins, err := bs.ApplyPage(dev, 0, 0, fullBinding(bs, 0), pages[0])
	if err != nil {
		t.Fatal(err)
	}
	if cells != len(pages[0].Cells) || pins != 0 {
		t.Fatalf("page apply wrote %d cells %d pins", cells, pins)
	}
	if dev.UsedCells() != len(pages[0].Cells) {
		t.Fatal("device holds wrong cell count after one page")
	}
}

func TestConfigCostScalesWithCells(t *testing.T) {
	small := gen(t, netlist.Parity(16))
	big := gen(t, netlist.Multiplier(4))
	tm := fabric.DefaultTiming()
	if small.ConfigCost(tm) >= big.ConfigCost(tm) {
		t.Fatalf("parity %v should cost less than mul4 %v", small.ConfigCost(tm), big.ConfigCost(tm))
	}
}

func TestRegionPlacement(t *testing.T) {
	bs := gen(t, netlist.Adder(8))
	r := bs.Region(3, 4)
	if r.X != 3 || r.Y != 4 || r.W != bs.W || r.H != bs.H {
		t.Fatalf("region %v", r)
	}
}

func TestConstSources(t *testing.T) {
	// A circuit with constant-driven logic must encode SrcConst, not ports.
	b := netlist.NewBuilder("consty")
	a := b.Input("a")
	b.Output("y", b.And(a, b.Const(true)))
	b.Output("z", b.Const(false))
	bs := gen(t, b.MustBuild())
	if bs.OutDrivers[1].Kind != SrcConst0 {
		t.Fatalf("const output driver kind %d", bs.OutDrivers[1].Kind)
	}
	dev := fabric.NewDevice(fabric.DefaultGeometry())
	pb := fullBinding(bs, 0)
	if _, _, err := bs.Apply(dev, 0, 0, pb); err != nil {
		t.Fatal(err)
	}
	dev.SetPin(pb.In[0], true)
	out, err := dev.Eval()
	if err != nil {
		t.Fatal(err)
	}
	if !out[pb.Out[0]] || out[pb.Out[1]] {
		t.Fatalf("const logic wrong: %v", out)
	}
}

// TestPackedLayout pins the sizes a cached circuit is made of.
func TestPackedLayout(t *testing.T) {
	if got := unsafe.Sizeof(Src{}); got != 8 {
		t.Errorf("Src is %d bytes, want 8", got)
	}
	if got := unsafe.Sizeof(CellWrite{}); got > 48 {
		t.Errorf("CellWrite is %d bytes, want at most 48", got)
	}
}

// TestGeneratePacksTechmapLUTs overwrites a routed design's truth tables
// with random ones and requires the one conversion site — Generate — to
// hand each on exactly: the packed table agrees with techmap's [16]bool at
// all sixteen indices, and survives the on-disk format.
func TestGeneratePacksTechmapLUTs(t *testing.T) {
	r := routed(t, netlist.ALU(8))
	cells := r.P.Mapped.Cells
	src := rng.New(11)
	for ci := range cells {
		for i := range cells[ci].LUT {
			cells[ci].LUT[i] = src.Bool()
		}
	}
	bs := Generate(r, fabric.DefaultTiming())
	if len(bs.Cells) != len(cells) {
		t.Fatalf("%d cell writes for %d mapped cells", len(bs.Cells), len(cells))
	}
	for ci := range cells {
		for i, want := range cells[ci].LUT {
			if bs.Cells[ci].LUT.At(i) != want {
				t.Fatalf("cell %d: packed table differs from techmap's at index %d", ci, i)
			}
		}
	}
	var buf bytes.Buffer
	if err := bs.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(bs, back) {
		t.Fatal("random truth tables did not survive WriteJSON/ReadJSON")
	}
}

// TestGenerateOutOfRangePanics: a placement the packed fields cannot hold
// is a bug upstream, and must not become a write to some other cell.
func TestGenerateOutOfRangePanics(t *testing.T) {
	r := routed(t, netlist.Adder(8))
	r.P.Cells[0].X += 1 << 16
	defer func() {
		if recover() == nil {
			t.Fatal("Generate narrowed an out-of-range cell coordinate")
		}
	}()
	Generate(r, fabric.DefaultTiming())
}
