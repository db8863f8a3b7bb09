package fabric

import (
	"encoding/json"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"testing/quick"
	"unsafe"

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
	// The packed plane names columns, rows and pins with an int16 each.
	big := Geometry{Cols: MaxDim, Rows: MaxDim, TracksPerChannel: 1, PinsPerSide: MaxDim / 4}
	if !big.Valid() {
		t.Fatalf("largest representable geometry %v reported invalid", big)
	}
	for _, g := range []Geometry{
		{Cols: MaxDim + 1, Rows: 1, TracksPerChannel: 1, PinsPerSide: 1},
		{Cols: 1, Rows: MaxDim + 1, TracksPerChannel: 1, PinsPerSide: 1},
		{Cols: 1, Rows: 1, TracksPerChannel: 1, PinsPerSide: MaxDim/4 + 1},
	} {
		if g.Valid() {
			t.Errorf("geometry %+v does not fit the packed plane but reported valid", g)
		}
	}
}

func TestRegionPredicates(t *testing.T) {
	r := Region{X: 2, Y: 3, W: 4, H: 5}
	if !r.Contains(2, 3) || !r.Contains(5, 7) {
		t.Fatal("corner containment failed")
	}
	if r.Contains(6, 3) || r.Contains(2, 8) || r.Contains(1, 3) {
		t.Fatal("exterior containment")
	}
	if !r.ContainsRegion(Region{X: 3, Y: 4, W: 2, H: 2}) {
		t.Fatal("nested region not contained")
	}
	if r.ContainsRegion(Region{X: 3, Y: 4, W: 4, H: 2}) {
		t.Fatal("protruding region contained")
	}
	if !r.ContainsRegion(Region{}) || (Region{}).ContainsRegion(r) {
		t.Fatal("empty region containment wrong")
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
		LUT:    PackLUT(lut),
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
	d.WriteCLB(1, 1, CLBConfig{Used: true, LUT: PackLUT(notLUT), Inputs: [4]Source{PinSource(0)}})
	d.WriteCLB(2, 2, CLBConfig{Used: true, LUT: PackLUT(notLUT), Inputs: [4]Source{CLBSource(1, 1)}})
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
		LUT:    PackLUT(notLUT),
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
	d.WriteCLB(0, 0, CLBConfig{Used: true, LUT: PackLUT(id), Inputs: [4]Source{CLBSource(1, 1)}})
	d.WriteCLB(1, 1, CLBConfig{Used: true, LUT: PackLUT(id), Inputs: [4]Source{CLBSource(0, 0)}})
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
		d.WriteCLB(x, y, CLBConfig{Used: true, LUT: PackLUT(notLUT), Inputs: [4]Source{CLBSource(x, y)}, UseFF: true})
	}
	mk(0, 0)
	mk(1, 1)
	r := Region{X: 0, Y: 0, W: 2, H: 2}
	if n := len(d.ReadRegionState(r)); n != 2 {
		t.Fatalf("FF count = %d", n)
	}
	d.Step() // both -> true
	saved := d.ReadRegionState(r)
	d.Step() // both -> false
	d.WriteRegionState(r, saved)
	if !d.at(0, 0).ff || !d.at(1, 1).ff {
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
		if got := lutEval(PackLUT(lut), c.in); got != c.want {
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
	if err := quick.Check(f, &quick.Config{Rand: rand.New(rand.NewSource(1))}); err != nil {
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
// write count — and requires Erase to leave it equal, field for field, to
// a new device of the same geometry whose blocks for the same columns
// are made and zero: Erase keeps the blocks it clears.
func TestEraseIsPowerUp(t *testing.T) {
	g := Geometry{Cols: 4, Rows: 4, TracksPerChannel: 4, PinsPerSide: 4}
	d := NewDevice(g)
	configureNot(d, 1, 1, 0, 1)
	var notLUT [16]bool
	for i := 0; i < 16; i++ {
		notLUT[i] = i&1 == 0
	}
	d.WriteCLB(2, 3, CLBConfig{Used: true, LUT: PackLUT(notLUT), Inputs: [4]Source{CLBSource(2, 3)}, UseFF: true})
	d.SetPin(0, true)
	if _, err := d.Step(); err != nil {
		t.Fatal(err)
	}
	powerUp := NewDevice(g)
	for x, col := range d.cols {
		if col != nil {
			powerUp.cols[x] = make([]cell, g.Rows)
		}
	}
	if !d.at(2, 3).ff || d.ConfigWrites() == 0 || reflect.DeepEqual(d, powerUp) {
		t.Fatal("the device is not dirty; the test would prove nothing")
	}
	blocks := slices.Clone(d.cols)
	d.Erase()
	if !reflect.DeepEqual(d, powerUp) {
		t.Fatalf("erased device differs from a new one:\n%+v", d)
	}
	for x := range blocks {
		if len(blocks[x]) > 0 && &blocks[x][0] != &d.cols[x][0] {
			t.Errorf("Erase replaced column %d's block instead of clearing it", x)
		}
	}
}

// TestPackedLayout pins the sizes the configuration plane was packed to:
// a field added to any of these types shows here before it shows as a
// board four times the size.
func TestPackedLayout(t *testing.T) {
	if got := unsafe.Sizeof(Source{}); got != 8 {
		t.Errorf("Source is %d bytes, want 8", got)
	}
	if got := unsafe.Sizeof(CLBConfig{}); got > 40 {
		t.Errorf("CLBConfig is %d bytes, want at most 40", got)
	}
	if got := unsafe.Sizeof(PinConfig{}); got > 12 {
		t.Errorf("PinConfig is %d bytes, want at most 12", got)
	}
	if got := unsafe.Sizeof(cell{}); got > 40 {
		t.Errorf("a configuration RAM cell is %d bytes, want at most 40", got)
	}
}

var sinkDevice *Device

// TestNewDeviceByteBudget holds the default board (32x16, 192 pins) to
// what it costs before its first write, the 3 264 bytes of its column
// index and pin state read plus ~10 %, and each column's first WriteCLB
// to the 640 bytes of its block (16 cells of 40) plus ~10 %. The whole
// configuration RAM made up front read 23 376 bytes.
func TestNewDeviceByteBudget(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	g := Geometry{Cols: 32, Rows: 16, TracksPerChannel: 12, PinsPerSide: 48}
	const (
		runs        = 20
		deviceBytes = 3584
		blockBytes  = 704
	)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		sinkDevice = NewDevice(g)
	}
	runtime.ReadMemStats(&after)
	perRun := (after.TotalAlloc - before.TotalAlloc) / runs
	if perRun > deviceBytes {
		t.Errorf("NewDevice(%v) allocates %d bytes, budget %d", g, perRun, deviceBytes)
	}
	d := NewDevice(g)
	runtime.ReadMemStats(&before)
	for x := 0; x < g.Cols; x++ {
		d.WriteCLB(x, x%g.Rows, CLBConfig{Used: true})
		d.WriteCLB(x, 0, CLBConfig{Used: true})
	}
	runtime.ReadMemStats(&after)
	perCol := (after.TotalAlloc - before.TotalAlloc) / uint64(g.Cols)
	t.Logf("%d bytes a device, %d a column block", perRun, perCol)
	if perCol > blockBytes {
		t.Errorf("a column's first writes allocate %d bytes, budget %d", perCol, blockBytes)
	}
}

func TestSourceOutOfRangePanics(t *testing.T) {
	for name, f := range map[string]func(){
		"column": func() { CLBSource(MaxDim+1, 0) },
		"row":    func() { CLBSource(0, -MaxDim-2) },
		"pin":    func() { PinSource(1 << 16) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s beyond the packed range did not panic", name)
				}
			}()
			f()
		}()
	}
	// One step off an edge is representable: the verifier has to see it.
	if s := CLBSource(-1, MaxDim); s.X != -1 || s.Y != MaxDim {
		t.Fatalf("CLBSource(-1, MaxDim) = %+v", s)
	}
}

// TestLUTPacking checks the packed truth table against the bool-per-entry
// form it replaced: same value at all sixteen indices, same JSON bytes,
// and an exact round trip, for random tables.
func TestLUTPacking(t *testing.T) {
	f := func(table [1 << LUTInputs]bool) bool {
		l := PackLUT(table)
		for i, want := range table {
			if l.At(i) != want {
				return false
			}
		}
		packed, err := json.Marshal(l)
		if err != nil {
			return false
		}
		wide, _ := json.Marshal(table)
		var back LUT
		if err := json.Unmarshal(packed, &back); err != nil {
			return false
		}
		return string(packed) == string(wide) && back == l && l.Table() == table
	}
	if err := quick.Check(f, &quick.Config{Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

// TestUsedCellsIsARecount drives random sequences of every operation that
// writes configuration RAM — WriteCLB (used over used, used over blank,
// blank over used, blank over blank), ClearRegion, Erase — and requires the
// maintained count to equal a recount through CLB over every cell after
// each.
func TestUsedCellsIsARecount(t *testing.T) {
	g := Geometry{Cols: 6, Rows: 5, TracksPerChannel: 4, PinsPerSide: 2}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		d := NewDevice(g)
		for step := 0; step < 200; step++ {
			switch op := r.Intn(10); {
			case op < 7: // few cells, so overwrites of both kinds are common
				d.WriteCLB(r.Intn(g.Cols), r.Intn(g.Rows), CLBConfig{Used: r.Intn(3) > 0, UseFF: r.Intn(2) == 0})
			case op < 9:
				x, y := r.Intn(g.Cols), r.Intn(g.Rows)
				d.ClearRegion(Region{X: x, Y: y, W: r.Intn(g.Cols - x + 1), H: r.Intn(g.Rows - y + 1)})
			default:
				d.Erase()
			}
			recount := 0
			for x := 0; x < g.Cols; x++ {
				for y := 0; y < g.Rows; y++ {
					recount += count(d.CLB(x, y).Used)
				}
			}
			if d.UsedCells() != recount {
				t.Errorf("seed %d step %d: UsedCells %d, recount %d", seed, step, d.UsedCells(), recount)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkNewDevice(b *testing.B) {
	g := Geometry{Cols: 32, Rows: 16, TracksPerChannel: 12, PinsPerSide: 48}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sinkDevice = NewDevice(g)
	}
}
