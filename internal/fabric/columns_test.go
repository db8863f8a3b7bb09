package fabric

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

// flatPlane is the configuration plane as one x-major array of every CLB
// beside a parallel array of flip-flops, made whole at power-up: the
// layout the column blocks replaced, kept as the reference
// TestColumnPlaneMatchesFlat holds the device to.
type flatPlane struct {
	g      Geometry
	clbs   []CLBConfig
	ffs    []bool
	pins   []PinConfig
	pinV   []bool
	used   int
	writes int64
}

func newFlatPlane(g Geometry) *flatPlane {
	return &flatPlane{
		g:    g,
		clbs: make([]CLBConfig, g.NumCLBs()),
		ffs:  make([]bool, g.NumCLBs()),
		pins: make([]PinConfig, g.NumPins()),
		pinV: make([]bool, g.NumPins()),
	}
}

func (f *flatPlane) idx(x, y int) int {
	if x < 0 || x >= f.g.Cols || y < 0 || y >= f.g.Rows {
		panic(fmt.Sprintf("fabric: CLB (%d,%d) outside %v", x, y, f.g))
	}
	return x*f.g.Rows + y
}

func (f *flatPlane) writeCLB(x, y int, cfg CLBConfig) {
	i := f.idx(x, y)
	f.used += count(cfg.Used) - count(f.clbs[i].Used)
	f.clbs[i] = cfg
	f.ffs[i] = cfg.FFInit
	f.writes++
}

func (f *flatPlane) clearRegion(r Region) {
	for x := r.X; x < r.X+r.W; x++ {
		for y := r.Y; y < r.Y+r.H; y++ {
			i := f.idx(x, y)
			f.used -= count(f.clbs[i].Used)
			f.clbs[i] = CLBConfig{}
			f.ffs[i] = false
			f.writes++
		}
	}
	for p := range f.pins {
		cfg := &f.pins[p]
		if cfg.Mode == PinOutput && cfg.Driver.Kind == SrcCLB && r.Contains(int(cfg.Driver.X), int(cfg.Driver.Y)) {
			*cfg = PinConfig{}
		}
	}
}

func (f *flatPlane) readRegionState(r Region) []bool {
	var state []bool
	for x := r.X; x < r.X+r.W; x++ {
		for y := r.Y; y < r.Y+r.H; y++ {
			if i := f.idx(x, y); f.clbs[i].Used && f.clbs[i].UseFF {
				state = append(state, f.ffs[i])
			}
		}
	}
	return state
}

func (f *flatPlane) writeRegionState(r Region, state []bool) {
	k := 0
	for x := r.X; x < r.X+r.W; x++ {
		for y := r.Y; y < r.Y+r.H; y++ {
			if i := f.idx(x, y); f.clbs[i].Used && f.clbs[i].UseFF {
				if k >= len(state) {
					panic("fabric: WriteRegionState vector too short")
				}
				f.ffs[i] = state[k]
				k++
			}
		}
	}
	if k != len(state) {
		panic(fmt.Sprintf("fabric: WriteRegionState vector has %d values for %d FFs", len(state), k))
	}
}

func (f *flatPlane) erase() {
	clear(f.clbs)
	clear(f.ffs)
	clear(f.pins)
	clear(f.pinV)
	f.used = 0
	f.writes = 0
}

func (f *flatPlane) resolve(s Source, outs []bool) bool {
	switch s.Kind {
	case SrcConst1:
		return true
	case SrcPin:
		return f.pinV[s.Pin]
	case SrcCLB:
		return outs[f.idx(int(s.X), int(s.Y))]
	}
	return false
}

// fault is what is wrong with a read of s, or "" for a sound one.
func (f *flatPlane) fault(s Source) string {
	switch s.Kind {
	case SrcUnused, SrcConst0, SrcConst1:
		return ""
	case SrcCLB:
		if s.X < 0 || int(s.X) >= f.g.Cols || s.Y < 0 || int(s.Y) >= f.g.Rows {
			return fmt.Sprintf("reads CLB (%d,%d) outside device %v", s.X, s.Y, f.g)
		}
		if !f.clbs[f.idx(int(s.X), int(s.Y))].Used {
			return fmt.Sprintf("reads unconfigured CLB (%d,%d)", s.X, s.Y)
		}
		return ""
	case SrcPin:
		if s.Pin < 0 || int(s.Pin) >= len(f.pins) {
			return fmt.Sprintf("reads pin %d outside device %v", s.Pin, f.g)
		}
		if f.pins[s.Pin].Mode != PinInput {
			return fmt.Sprintf("reads pin %d which is not configured as an input", s.Pin)
		}
		return ""
	}
	return fmt.Sprintf("unknown source kind %d", s.Kind)
}

func (f *flatPlane) step() (map[int]bool, error) {
	var used []int
	for i := range f.clbs {
		if f.clbs[i].Used {
			used = append(used, i)
		}
	}
	for _, i := range used {
		for k, src := range f.clbs[i].Inputs {
			if fault := f.fault(src); fault != "" {
				return nil, fmt.Errorf("CLB (%d,%d) input %d: %s", i/f.g.Rows, i%f.g.Rows, k, fault)
			}
		}
	}
	for p, cfg := range f.pins {
		if fault := f.fault(cfg.Driver); cfg.Mode == PinOutput && fault != "" {
			return nil, fmt.Errorf("output pin %d: %s", p, fault)
		}
	}
	indeg := make(map[int]int)
	succ := make(map[int][]int)
	for _, i := range used {
		for _, src := range f.clbs[i].Inputs {
			if src.Kind != SrcCLB {
				continue
			}
			j := f.idx(int(src.X), int(src.Y))
			if f.clbs[j].UseFF {
				continue
			}
			indeg[i]++
			succ[j] = append(succ[j], i)
		}
	}
	var queue, order []int
	for _, i := range used {
		if indeg[i] == 0 {
			queue = append(queue, i)
		}
	}
	sort.Ints(queue)
	for len(queue) > 0 {
		i := queue[0]
		queue = queue[1:]
		order = append(order, i)
		for _, s := range succ[i] {
			if indeg[s]--; indeg[s] == 0 {
				queue = append(queue, s)
			}
		}
	}
	if len(order) != len(used) {
		return nil, fmt.Errorf("logic: configured fabric contains a combinational loop (%d of %d CLBs unordered)", len(used)-len(order), len(used))
	}
	outs := make([]bool, len(f.clbs))
	lutOuts := make([]bool, len(f.clbs))
	for i := range f.clbs {
		if f.clbs[i].Used && f.clbs[i].UseFF {
			outs[i] = f.ffs[i]
		}
	}
	for _, i := range order {
		var in [LUTInputs]bool
		for k, src := range f.clbs[i].Inputs {
			in[k] = f.resolve(src, outs)
		}
		lutOuts[i] = lutEval(f.clbs[i].LUT, in)
		if !f.clbs[i].UseFF {
			outs[i] = lutOuts[i]
		}
	}
	res := make(map[int]bool)
	for p := range f.pins {
		if f.pins[p].Mode == PinOutput {
			res[p] = f.resolve(f.pins[p].Driver, outs)
		}
	}
	for i := range f.clbs {
		if f.clbs[i].Used && f.clbs[i].UseFF {
			f.ffs[i] = lutOuts[i]
		}
	}
	return res, nil
}

// recovered runs op and returns what it panicked with, as text, or "".
func recovered(op func()) (msg string) {
	defer func() {
		if p := recover(); p != nil {
			msg = fmt.Sprint(p)
		}
	}()
	op()
	return ""
}

// randomSource draws an input for the CLB at scan index at, or a pin
// driver when at is -1. A source reads, most of the time, a configured
// CLB of ref that is registered or earlier in scan order, or a pin of ref
// configured as an input: Step refuses logic that reads a blank cell or a
// pin not an input, and logic that reads a later combinational CLB may
// be a loop.
func randomSource(r *rand.Rand, ref *flatPlane, at int) Source {
	g := ref.g
	switch r.Intn(10) {
	case 0, 1, 2:
		if r.Intn(16) == 0 {
			return CLBSource(r.Intn(g.Cols), r.Intn(g.Rows))
		}
		var fed []int
		for i, c := range ref.clbs {
			if c.Used && (c.UseFF || i < at || at < 0 || r.Intn(8) == 0) {
				fed = append(fed, i)
			}
		}
		if len(fed) > 0 {
			i := fed[r.Intn(len(fed))]
			return CLBSource(i/g.Rows, i%g.Rows)
		}
		fallthrough
	case 3, 4, 5:
		if r.Intn(16) == 0 {
			return PinSource(r.Intn(g.NumPins()))
		}
		var inputs []int
		for p, cfg := range ref.pins {
			if cfg.Mode == PinInput {
				inputs = append(inputs, p)
			}
		}
		if len(inputs) > 0 {
			return PinSource(inputs[r.Intn(len(inputs))])
		}
		fallthrough
	case 6, 7:
		return ConstSource(r.Intn(2) == 0)
	}
	return Source{}
}

// corruptSource draws one of the sources Device.Check is tested
// on: a CLB one step off the device's edge, an unknown kind.
func corruptSource(r *rand.Rand, g Geometry) Source {
	if r.Intn(2) == 0 {
		return CLBSource(-1, r.Intn(g.Rows))
	}
	return Source{Kind: 9}
}

func randomRegion(r *rand.Rand, g Geometry) Region {
	if r.Intn(10) == 0 { // reaches past the device: both sides must panic alike
		return Region{X: r.Intn(g.Cols), Y: -1 + r.Intn(2), W: g.Cols, H: 2}
	}
	x, y := r.Intn(g.Cols), r.Intn(g.Rows)
	return Region{X: x, Y: y, W: r.Intn(g.Cols - x + 1), H: r.Intn(g.Rows - y + 1)}
}

// TestColumnPlaneMatchesFlat drives a device and the flat reference
// through the same random sequences of configuration writes, region
// clears, state restores, pin writes, erases and clock steps, corrupt
// sources and out-of-range regions among them, and requires the two to
// agree after every operation: the same panic, every cell's
// configuration and flip-flop, a whole-device readback, UsedCells (and a
// recount of every cell), ConfigWrites and each Step's outputs or error.
func TestColumnPlaneMatchesFlat(t *testing.T) {
	g := Geometry{Cols: 7, Rows: 4, TracksPerChannel: 4, PinsPerSide: 2}
	outcomes := map[string]int{}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		d, ref := NewDevice(g), newFlatPlane(g)
		for step := 0; step < 150; step++ {
			var what, got, want string
			switch op := r.Intn(20); {
			case op < 7:
				x, y := r.Intn(g.Cols), r.Intn(g.Rows)
				cfg := CLBConfig{Used: r.Intn(10) > 0, LUT: LUT(r.Uint32()), UseFF: r.Intn(3) > 0, FFInit: r.Intn(2) == 0}
				for k := range cfg.Inputs {
					cfg.Inputs[k] = randomSource(r, ref, x*g.Rows+y)
				}
				if r.Intn(15) == 0 {
					cfg.Inputs[r.Intn(LUTInputs)] = corruptSource(r, g)
				}
				what = fmt.Sprintf("WriteCLB(%d, %d, %+v)", x, y, cfg)
				got = recovered(func() { d.WriteCLB(x, y, cfg) })
				want = recovered(func() { ref.writeCLB(x, y, cfg) })
			case op < 9:
				reg := randomRegion(r, g)
				what = fmt.Sprintf("ClearRegion(%+v)", reg)
				got = recovered(func() { d.ClearRegion(reg) })
				want = recovered(func() { ref.clearRegion(reg) })
			case op < 11:
				reg := randomRegion(r, g)
				// One vector in five is a value too long. A region past
				// the device panics here, and both sides get no values.
				var state []bool
				recovered(func() { state = make([]bool, len(ref.readRegionState(reg))+r.Intn(5)/4) })
				for k := range state {
					state[k] = r.Intn(2) == 0
				}
				what = fmt.Sprintf("WriteRegionState(%+v, %v)", reg, state)
				got = recovered(func() { d.WriteRegionState(reg, state) })
				want = recovered(func() { ref.writeRegionState(reg, state) })
			case op < 13:
				p := r.Intn(g.NumPins())
				cfg := PinConfig{Mode: PinMode(r.Intn(3)), Driver: randomSource(r, ref, -1)}
				if r.Intn(15) == 0 {
					cfg.Driver = corruptSource(r, g)
				}
				what = fmt.Sprintf("WritePin(%d, %+v)", p, cfg)
				d.WritePin(p, cfg)
				ref.pins[p] = cfg
			case op < 14:
				p, v := r.Intn(g.NumPins()), r.Intn(2) == 0
				what = fmt.Sprintf("SetPin(%d, %v)", p, v)
				got = recovered(func() { d.SetPin(p, v) })
				want = recovered(func() {
					if ref.pins[p].Mode != PinInput {
						panic(fmt.Sprintf("fabric: SetPin on pin %d which is not an input", p))
					}
					ref.pinV[p] = v
				})
			case op < 18:
				what = "Step()"
				var gotOut, wantOut map[int]bool
				var gotErr, wantErr error
				got = recovered(func() { gotOut, gotErr = d.Step() })
				want = recovered(func() { wantOut, wantErr = ref.step() })
				if !reflect.DeepEqual(gotOut, wantOut) || fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
					t.Errorf("seed %d step %d: Step() = %v, %v; flat plane %v, %v", seed, step, gotOut, gotErr, wantOut, wantErr)
					return false
				}
				switch msg := fmt.Sprint(gotErr); {
				case gotErr == nil:
					outcomes["ran"]++
				case strings.HasPrefix(msg, "logic: "):
					outcomes["loop"]++
				case strings.Contains(msg, "outside device") || strings.Contains(msg, "unknown source kind"):
					outcomes["corrupt"]++
				default:
					outcomes["dangling"]++
				}
			default:
				what = "Erase()"
				d.Erase()
				ref.erase()
			}
			if got != want {
				t.Errorf("seed %d step %d: %s panicked %q, flat plane %q", seed, step, what, got, want)
				return false
			}
			recount := 0
			for x := 0; x < g.Cols; x++ {
				for y := 0; y < g.Rows; y++ {
					recount += count(d.CLB(x, y).Used)
					i := ref.idx(x, y)
					if c := d.at(x, y); d.CLB(x, y) != ref.clbs[i] || c.cfg != ref.clbs[i] || c.ff != ref.ffs[i] {
						t.Errorf("seed %d step %d after %s: CLB (%d,%d) reads %+v ff %v, flat plane %+v ff %v",
							seed, step, what, x, y, d.CLB(x, y), c.ff, ref.clbs[i], ref.ffs[i])
						return false
					}
				}
			}
			all := g.Bounds()
			if !slices.Equal(d.ReadRegionState(all), ref.readRegionState(all)) || d.UsedCells() != recount ||
				d.UsedCells() != ref.used || d.ConfigWrites() != ref.writes || !reflect.DeepEqual(d.pins, ref.pins) {
				t.Errorf("seed %d step %d after %s: readback %v used %d (recount %d) writes %d; flat plane %v %d %d",
					seed, step, what, d.ReadRegionState(all), d.UsedCells(), recount, d.ConfigWrites(),
					ref.readRegionState(all), ref.used, ref.writes)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
	// A Step that ran compares outputs and flip-flops; a loop, a read of
	// a blank cell or of a pin not an input, and a corrupt source compare
	// the refusal. All four must come up.
	for _, o := range []string{"ran", "loop", "dangling", "corrupt"} {
		if outcomes[o] == 0 {
			t.Errorf("no Step ended %q; Step outcomes %v", o, outcomes)
		}
	}
}
