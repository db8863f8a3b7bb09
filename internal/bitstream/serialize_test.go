package bitstream

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"repro/internal/fabric"
	"repro/internal/netlist"
	"repro/internal/rng"
)

func TestJSONRoundTrip(t *testing.T) {
	for _, nl := range []*netlist.Netlist{netlist.Adder(8), netlist.Counter(8), netlist.ALU(8)} {
		bs := gen(t, nl)
		var buf bytes.Buffer
		if err := bs.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		got, err := ReadJSON(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(bs, got) {
			t.Fatalf("%s: round trip not identical", nl.Name)
		}
	}
}

func TestJSONRoundTripFunctional(t *testing.T) {
	// A deserialized bitstream must behave identically on the device.
	nl := netlist.ALU(8)
	bs := gen(t, nl)
	var buf bytes.Buffer
	if err := bs.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	devA := fabric.NewDevice(fabric.DefaultGeometry())
	devB := fabric.NewDevice(fabric.DefaultGeometry())
	pb := fullBinding(bs, 0)
	if _, _, err := bs.Apply(devA, 0, 0, pb); err != nil {
		t.Fatal(err)
	}
	if _, _, err := loaded.Apply(devB, 0, 0, pb); err != nil {
		t.Fatal(err)
	}
	src := rng.New(3)
	for cyc := 0; cyc < 32; cyc++ {
		for i := 0; i < bs.NumIn; i++ {
			v := src.Bool()
			devA.SetPin(pb.In[i], v)
			devB.SetPin(pb.In[i], v)
		}
		a, err := devA.Eval()
		if err != nil {
			t.Fatal(err)
		}
		b, err := devB.Eval()
		if err != nil {
			t.Fatal(err)
		}
		for o := 0; o < bs.NumOut; o++ {
			if a[pb.Out[o]] != b[pb.Out[o]] {
				t.Fatalf("deserialized bitstream diverged at cycle %d output %d", cyc, o)
			}
		}
	}
}

func TestReadJSONRejectsGarbage(t *testing.T) {
	if _, err := ReadJSON(strings.NewReader("not json")); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := ReadJSON(strings.NewReader(`{"version":99,"bitstream":null}`)); err == nil {
		t.Fatal("wrong version accepted")
	}
	if _, err := ReadJSON(strings.NewReader(`{"version":1}`)); err == nil {
		t.Fatal("empty document accepted")
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	mk := func() *Bitstream { return gen(t, netlist.Adder(8)) }

	bs := mk()
	bs.Cells[0].X = int16(bs.W + 5)
	if err := bs.Validate(); err == nil {
		t.Fatal("out-of-region cell accepted")
	}

	bs = mk()
	bs.Cells[1].X, bs.Cells[1].Y = bs.Cells[0].X, bs.Cells[0].Y
	if err := bs.Validate(); err == nil {
		t.Fatal("overlapping cells accepted")
	}

	bs = mk()
	bs.Cells[0].Inputs[0] = Src{Kind: SrcPort, Port: int16(bs.NumIn + 3)}
	if err := bs.Validate(); err == nil {
		t.Fatal("out-of-range port source accepted")
	}

	// Widening the region by a column leaves the new column unwritten.
	bs = mk()
	bs.W++
	bs.Cells[0].Inputs[0] = Src{Kind: SrcRel, DX: int16(bs.W - 1), DY: 0}
	if err := bs.Validate(); err == nil {
		t.Fatal("cell input reading an unwritten cell accepted")
	}

	bs = mk()
	bs.OutDrivers[0] = Src{Kind: SrcNone}
	if err := bs.Validate(); err == nil {
		t.Fatal("undriven output accepted")
	}

	bs = mk()
	bs.W++
	bs.OutDrivers[0] = Src{Kind: SrcRel, DX: int16(bs.W - 1), DY: 0}
	if err := bs.Validate(); err == nil {
		t.Fatal("output driven by an unwritten cell accepted")
	}

	bs = mk()
	bs.FFCells = 99
	if err := bs.Validate(); err == nil {
		t.Fatal("wrong FF count accepted")
	}

	bs = mk()
	bs.OutDrivers = bs.OutDrivers[:1]
	if err := bs.Validate(); err == nil {
		t.Fatal("truncated out drivers accepted")
	}

	bs = mk()
	bs.Name = ""
	if err := bs.Validate(); err == nil {
		t.Fatal("unnamed bitstream accepted")
	}

	bs = mk()
	bs.W = 0
	if err := bs.Validate(); err == nil {
		t.Fatal("zero footprint accepted")
	}

	bs = mk()
	bs.H = fabric.MaxDim + 1
	if err := bs.Validate(); err == nil {
		t.Fatal("footprint beyond the packed range accepted")
	}

	bs = mk()
	bs.NumIn = fabric.MaxDim + 1
	if err := bs.Validate(); err == nil {
		t.Fatal("port count beyond the packed range accepted")
	}
}

func TestValidateAcceptsGenerated(t *testing.T) {
	for name, genf := range netlist.Registry() {
		bs := gen(t, genf())
		if err := bs.Validate(); err != nil {
			t.Fatalf("%s: generated bitstream invalid: %v", name, err)
		}
	}
}
