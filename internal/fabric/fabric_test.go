package fabric

import (
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func TestGeometry(t *testing.T) {
	g := DefaultGeometry()
	if !g.Valid() {
		t.Fatal("default geometry invalid")
	}
	if g.NumCLBs() != 576 {
		t.Fatalf("default CLBs = %d, want 576", g.NumCLBs())
	}
	if g.NumPins() != 192 {
		t.Fatalf("default pins = %d, want 192", g.NumPins())
	}
	if g.String() != "24x24/192pin" {
		t.Fatalf("geometry string = %q", g.String())
	}
	if (Geometry{}).Valid() {
		t.Fatal("zero geometry reported valid")
	}
}

func TestRegionPredicates(t *testing.T) {
	r := Region{X: 2, Y: 3, W: 4, H: 5}
	if r.Cells() != 20 {
		t.Fatalf("cells = %d", r.Cells())
	}
	if !r.Contains(2, 3) || !r.Contains(5, 7) {
		t.Fatal("corner containment failed")
	}
	if r.Contains(6, 3) || r.Contains(2, 8) || r.Contains(1, 3) {
		t.Fatal("exterior containment")
	}
	if !r.Overlaps(Region{X: 5, Y: 7, W: 10, H: 10}) {
		t.Fatal("overlap at corner missed")
	}
	if r.Overlaps(Region{X: 6, Y: 3, W: 2, H: 2}) {
		t.Fatal("adjacent regions reported overlapping")
	}
	if !r.ContainsRegion(Region{X: 3, Y: 4, W: 2, H: 2}) {
		t.Fatal("nested region not contained")
	}
	if r.ContainsRegion(Region{X: 3, Y: 4, W: 4, H: 2}) {
		t.Fatal("protruding region contained")
	}
	if !r.Fits(4, 5) || r.Fits(5, 5) {
		t.Fatal("Fits wrong")
	}
	if (Region{}).Overlaps(r) {
		t.Fatal("empty region overlaps")
	}
}

func TestRegionSplit(t *testing.T) {
	r := Region{X: 0, Y: 0, W: 10, H: 6}
	l, rr := r.SplitH(4)
	if l != (Region{0, 0, 4, 6}) || rr != (Region{4, 0, 6, 6}) {
		t.Fatalf("SplitH wrong: %v %v", l, rr)
	}
	b, tt := r.SplitV(2)
	if b != (Region{0, 0, 10, 2}) || tt != (Region{0, 2, 10, 4}) {
		t.Fatalf("SplitV wrong: %v %v", b, tt)
	}
}

func TestRegionSplitPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range split did not panic")
		}
	}()
	Region{W: 4, H: 4}.SplitH(5)
}

func TestRegionOverlapSymmetryProperty(t *testing.T) {
	f := func(ax, ay, bx, by uint8, aw, ah, bw, bh uint8) bool {
		a := Region{int(ax % 30), int(ay % 30), int(aw%10) + 1, int(ah%10) + 1}
		b := Region{int(bx % 30), int(by % 30), int(bw%10) + 1, int(bh%10) + 1}
		if a.Overlaps(b) != b.Overlaps(a) {
			return false
		}
		// Overlap iff some cell is in both.
		brute := false
		for x := a.X; x < a.X+a.W && !brute; x++ {
			for y := a.Y; y < a.Y+a.H; y++ {
				if b.Contains(x, y) {
					brute = true
					break
				}
			}
		}
		return a.Overlaps(b) == brute
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// configureNot wires pin inPin -> NOT -> pin outPin using the CLB at (x,y).
func configureNot(d *Device, x, y, inPin, outPin int) {
	var lut [16]bool
	for i := 0; i < 16; i++ {
		lut[i] = i&1 == 0 // NOT of input 0
	}
	d.WriteCLB(x, y, CLBConfig{
		Used:   true,
		LUT:    lut,
		Inputs: [4]Source{PinSource(inPin)},
	})
	d.WritePin(inPin, PinConfig{Mode: PinInput})
	d.WritePin(outPin, PinConfig{Mode: PinOutput, Driver: CLBSource(x, y)})
}

func TestDeviceCombinational(t *testing.T) {
	d := NewDevice(Geometry{Cols: 4, Rows: 4, TracksPerChannel: 4, PinsPerSide: 4})
	configureNot(d, 1, 1, 0, 1)
	d.SetPin(0, false)
	out, err := d.Eval()
	if err != nil {
		t.Fatal(err)
	}
	if out[1] != true {
		t.Fatalf("NOT(0) = %v", out[1])
	}
	d.SetPin(0, true)
	out, _ = d.Eval()
	if out[1] != false {
		t.Fatalf("NOT(1) = %v", out[1])
	}
}

func TestDeviceChainedLogic(t *testing.T) {
	// pin0 -> NOT(1,1) -> NOT(2,2) -> pin1 : identity
	d := NewDevice(Geometry{Cols: 4, Rows: 4, TracksPerChannel: 4, PinsPerSide: 4})
	var notLUT [16]bool
	for i := 0; i < 16; i++ {
		notLUT[i] = i&1 == 0
	}
	d.WriteCLB(1, 1, CLBConfig{Used: true, LUT: notLUT, Inputs: [4]Source{PinSource(0)}})
	d.WriteCLB(2, 2, CLBConfig{Used: true, LUT: notLUT, Inputs: [4]Source{CLBSource(1, 1)}})
	d.WritePin(0, PinConfig{Mode: PinInput})
	d.WritePin(1, PinConfig{Mode: PinOutput, Driver: CLBSource(2, 2)})
	for _, v := range []bool{false, true} {
		d.SetPin(0, v)
		out, err := d.Eval()
		if err != nil {
			t.Fatal(err)
		}
		if out[1] != v {
			t.Fatalf("identity(%v) = %v", v, out[1])
		}
	}
}

func TestDeviceSequentialToggle(t *testing.T) {
	// A registered CLB computing NOT of its own output: toggles each Step.
	d := NewDevice(Geometry{Cols: 2, Rows: 2, TracksPerChannel: 4, PinsPerSide: 2})
	var notLUT [16]bool
	for i := 0; i < 16; i++ {
		notLUT[i] = i&1 == 0
	}
	d.WriteCLB(0, 0, CLBConfig{
		Used:   true,
		LUT:    notLUT,
		Inputs: [4]Source{CLBSource(0, 0)},
		UseFF:  true,
	})
	d.WritePin(0, PinConfig{Mode: PinOutput, Driver: CLBSource(0, 0)})
	want := []bool{false, true, false, true}
	for i, w := range want {
		out, err := d.Step()
		if err != nil {
			t.Fatal(err)
		}
		if out[0] != w {
			t.Fatalf("toggle step %d = %v, want %v", i, out[0], w)
		}
	}
}

func TestCombinationalLoopDetected(t *testing.T) {
	d := NewDevice(Geometry{Cols: 2, Rows: 2, TracksPerChannel: 4, PinsPerSide: 2})
	id := func() [16]bool {
		var lut [16]bool
		for i := 0; i < 16; i++ {
			lut[i] = i&1 == 1
		}
		return lut
	}()
	d.WriteCLB(0, 0, CLBConfig{Used: true, LUT: id, Inputs: [4]Source{CLBSource(1, 1)}})
	d.WriteCLB(1, 1, CLBConfig{Used: true, LUT: id, Inputs: [4]Source{CLBSource(0, 0)}})
	if _, err := d.Eval(); err == nil {
		t.Fatal("combinational loop not detected")
	}
}

func TestClearRegion(t *testing.T) {
	d := NewDevice(Geometry{Cols: 4, Rows: 4, TracksPerChannel: 4, PinsPerSide: 4})
	configureNot(d, 1, 1, 0, 1)
	if d.UsedCells() != 1 {
		t.Fatalf("used cells = %d", d.UsedCells())
	}
	d.ClearRegion(Region{X: 0, Y: 0, W: 2, H: 2})
	if d.UsedCells() != 0 {
		t.Fatal("region not cleared")
	}
	if d.Pin(1).Mode != PinUnused {
		t.Fatal("output pin driven from cleared region still configured")
	}
	// Input pin config survives (it is not driven by the region).
	if d.Pin(0).Mode != PinInput {
		t.Fatal("input pin config was cleared")
	}
}

func TestStateReadbackRestore(t *testing.T) {
	// Two independent toggles; save state mid-flight, run on, restore.
	d := NewDevice(Geometry{Cols: 4, Rows: 4, TracksPerChannel: 4, PinsPerSide: 4})
	var notLUT [16]bool
	for i := 0; i < 16; i++ {
		notLUT[i] = i&1 == 0
	}
	mk := func(x, y int) {
		d.WriteCLB(x, y, CLBConfig{Used: true, LUT: notLUT, Inputs: [4]Source{CLBSource(x, y)}, UseFF: true})
	}
	mk(0, 0)
	mk(1, 1)
	r := Region{X: 0, Y: 0, W: 2, H: 2}
	if d.RegionFFCount(r) != 2 {
		t.Fatalf("FF count = %d", d.RegionFFCount(r))
	}
	d.Step() // both -> true
	saved := d.ReadRegionState(r)
	d.Step() // both -> false
	d.WriteRegionState(r, saved)
	if !d.FF(0, 0) || !d.FF(1, 1) {
		t.Fatal("state restore failed")
	}
}

func TestWriteRegionStateLengthMismatchPanics(t *testing.T) {
	d := NewDevice(Geometry{Cols: 2, Rows: 2, TracksPerChannel: 4, PinsPerSide: 2})
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched state vector did not panic")
		}
	}()
	d.WriteRegionState(Region{W: 2, H: 2}, []bool{true})
}

func TestSetPinOnNonInputPanics(t *testing.T) {
	d := NewDevice(Geometry{Cols: 2, Rows: 2, TracksPerChannel: 4, PinsPerSide: 2})
	defer func() {
		if recover() == nil {
			t.Fatal("SetPin on unused pin did not panic")
		}
	}()
	d.SetPin(0, true)
}

func TestOutOfRangeCLBPanics(t *testing.T) {
	d := NewDevice(Geometry{Cols: 2, Rows: 2, TracksPerChannel: 4, PinsPerSide: 2})
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range CLB did not panic")
		}
	}()
	d.CLB(5, 0)
}

func TestLUTEval(t *testing.T) {
	// XOR of inputs 0 and 1.
	var lut [16]bool
	for i := 0; i < 16; i++ {
		lut[i] = (i&1 == 1) != (i&2 == 2)
	}
	cases := []struct {
		in   [4]bool
		want bool
	}{
		{[4]bool{false, false}, false},
		{[4]bool{true, false}, true},
		{[4]bool{false, true}, true},
		{[4]bool{true, true}, false},
	}
	for _, c := range cases {
		if got := lutEval(&lut, c.in); got != c.want {
			t.Fatalf("lutEval(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestTimingCalibration(t *testing.T) {
	// The default device must take ~200 ms for a full configuration, the
	// figure the paper quotes for the XC4000 family.
	tm := DefaultTiming()
	g := DefaultGeometry()
	full := tm.FullConfigTime(g)
	if full < 190*sim.Millisecond || full > 210*sim.Millisecond {
		t.Fatalf("full config time = %v, want ~200ms", full)
	}
}

func TestPartialCheaperThanFull(t *testing.T) {
	tm := DefaultTiming()
	g := DefaultGeometry()
	partial := tm.PartialConfigTime(50, 10)
	if partial >= tm.FullConfigTime(g) {
		t.Fatalf("partial(50 cells) = %v not cheaper than full %v", partial, tm.FullConfigTime(g))
	}
}

func TestPartialConfigMonotonic(t *testing.T) {
	tm := DefaultTiming()
	f := func(aRaw, bRaw uint16) bool {
		a, b := int(aRaw%1000), int(bRaw%1000)
		if a > b {
			a, b = b, a
		}
		return tm.PartialConfigTime(a, 0) <= tm.PartialConfigTime(b, 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestReadbackScalesWithFFs(t *testing.T) {
	tm := DefaultTiming()
	if tm.ReadbackTime(100) <= tm.ReadbackTime(10) {
		t.Fatal("readback time not increasing in FF count")
	}
	if tm.RestoreTime(100) <= tm.RestoreTime(10) {
		t.Fatal("restore time not increasing in FF count")
	}
}

func TestClockPeriodFloor(t *testing.T) {
	tm := DefaultTiming()
	if tm.ClockPeriod(1) != tm.MinClock {
		t.Fatal("clock floor not applied")
	}
	if tm.ClockPeriod(100*sim.Nanosecond) != 100*sim.Nanosecond {
		t.Fatal("clock period should track critical path")
	}
}

func TestConfigWritesAccounting(t *testing.T) {
	d := NewDevice(Geometry{Cols: 3, Rows: 3, TracksPerChannel: 4, PinsPerSide: 2})
	configureNot(d, 0, 0, 0, 1)
	if d.ConfigWrites() != 1 {
		t.Fatalf("config writes = %d, want 1", d.ConfigWrites())
	}
	d.ClearRegion(d.Geometry().Bounds())
	if d.ConfigWrites() != 10 {
		t.Fatalf("config writes after clear = %d, want 10", d.ConfigWrites())
	}
}

// TestEraseIsPowerUp dirties every field of a device — configuration
// RAM, flip-flop state, pin configuration, a latched input value, the
// write count — and requires Erase to leave it indistinguishable from a
// new device of the same geometry.
func TestEraseIsPowerUp(t *testing.T) {
	g := Geometry{Cols: 4, Rows: 4, TracksPerChannel: 4, PinsPerSide: 4}
	d := NewDevice(g)
	configureNot(d, 1, 1, 0, 1)
	var notLUT [16]bool
	for i := 0; i < 16; i++ {
		notLUT[i] = i&1 == 0
	}
	d.WriteCLB(2, 3, CLBConfig{Used: true, LUT: notLUT, Inputs: [4]Source{CLBSource(2, 3)}, UseFF: true})
	d.SetPin(0, true)
	if _, err := d.Step(); err != nil {
		t.Fatal(err)
	}
	if !d.FF(2, 3) || d.ConfigWrites() == 0 || reflect.DeepEqual(d, NewDevice(g)) {
		t.Fatal("the device is not dirty; the test would prove nothing")
	}
	d.Erase()
	if !reflect.DeepEqual(d, NewDevice(g)) {
		t.Fatalf("erased device differs from a new one:\n%+v", d)
	}
}
