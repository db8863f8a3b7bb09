package fabric

import (
	"encoding/json"
	"fmt"
	"math"

	"repro/internal/flat"
)

// MaxDim is the largest column, row, pin or port count the configuration
// plane represents: every coordinate and index in it is an int16. A byte
// would hold the default board's 192 pins and nothing larger, and the
// fields are signed so that a corrupt reference one step off an edge
// stays visible to the static verifier as the negative it is.
const MaxDim = math.MaxInt16

// Coord narrows a column, row, pin or port index to the packed field
// width. Geometry.Valid and bitstream.Validate bound everything that
// arrives from outside, so a value that does not fit is a programmer
// error and panics rather than wrap onto a legal cell.
func Coord(v int) int16 {
	if v < math.MinInt16 || v > math.MaxInt16 {
		panic(fmt.Sprintf("fabric: index %d does not fit the packed configuration plane (max %d)", v, MaxDim))
	}
	return int16(v)
}

// SourceKind enumerates where a configured signal comes from.
type SourceKind uint8

// Signal source kinds.
const (
	SrcUnused SourceKind = iota // pin not connected
	SrcCLB                      // output of the CLB at (X, Y)
	SrcPin                      // device input pin Pin
	SrcConst0
	SrcConst1
)

// Source identifies the driver of a CLB input or an output pin. It is
// eight bytes: a CLB carries four of them and a device hundreds of CLBs,
// so the width of these fields is the size of a board.
type Source struct {
	Kind SourceKind
	X, Y int16 // CLB coordinates when Kind == SrcCLB
	Pin  int16 // pin index when Kind == SrcPin
}

// CLBSource returns a Source reading the CLB output at (x, y).
func CLBSource(x, y int) Source { return Source{Kind: SrcCLB, X: Coord(x), Y: Coord(y)} }

// PinSource returns a Source reading device input pin p.
func PinSource(p int) Source { return Source{Kind: SrcPin, Pin: Coord(p)} }

// ConstSource returns a constant Source.
func ConstSource(v bool) Source {
	if v {
		return Source{Kind: SrcConst1}
	}
	return Source{Kind: SrcConst0}
}

// LUTInputs is the number of LUT inputs per CLB (a 4-LUT, as in XC4000).
const LUTInputs = 4

// LUT is the truth table of one look-up table, a bit per input
// combination: bit i is the output when the inputs, input k at bit k, read
// as the number i.
type LUT uint16

// PackLUT packs a truth table given as one bool per input combination.
func PackLUT(table [1 << LUTInputs]bool) LUT {
	var l LUT
	for i, v := range table {
		if v {
			l |= 1 << uint(i)
		}
	}
	return l
}

// At returns the table's output for input combination i.
func (l LUT) At(i int) bool { return l>>uint(i)&1 != 0 }

// Table unpacks the truth table into one bool per input combination.
func (l LUT) Table() [1 << LUTInputs]bool {
	var table [1 << LUTInputs]bool
	for i := range table {
		table[i] = l.At(i)
	}
	return table
}

// MarshalJSON writes the table as the sixteen booleans it stands for, the
// form the bitstream format has always carried.
func (l LUT) MarshalJSON() ([]byte, error) { return json.Marshal(l.Table()) }

// UnmarshalJSON reads the form MarshalJSON writes.
func (l *LUT) UnmarshalJSON(data []byte) error {
	var table [1 << LUTInputs]bool
	if err := json.Unmarshal(data, &table); err != nil {
		return err
	}
	*l = PackLUT(table)
	return nil
}

// CLBConfig is the configuration of one logic block: a 4-input LUT truth
// table, the input routing selection, and the optional output register.
// The zero value is an unused CLB.
type CLBConfig struct {
	Used   bool
	LUT    LUT
	Inputs [LUTInputs]Source
	UseFF  bool // when set, the CLB output is the FF; FF.D is the LUT output
	FFInit bool
}

// PinMode configures an I/O block.
type PinMode uint8

// Pin modes.
const (
	PinUnused PinMode = iota
	PinInput          // driven from outside the device
	PinOutput         // drives off-device, sourced from Driver
)

// PinConfig is the configuration of one I/O block.
type PinConfig struct {
	Mode   PinMode
	Driver Source // used when Mode == PinOutput
}

// cell is one CLB of configuration RAM: its configuration and the live
// value of its flip-flop.
type cell struct {
	cfg CLBConfig
	ff  bool
}

// Device is a configured FPGA: configuration state plus live FF state.
// It is not safe for concurrent use; the simulation is single-threaded by
// design (deterministic virtual time).
type Device struct {
	geom Geometry
	// cols is the configuration RAM, one block of Rows cells per column.
	// A column's first WriteCLB makes its block; until then it reads as
	// blank. The managers hand the device out as column strips, so a job
	// configures a few columns of many.
	cols [][]cell
	pins []PinConfig
	pinV []bool // live input pin values, latched by SetPin

	used         int   // CLBs with Used set, kept by every write to a cell
	configWrites int64 // cells written since power-up (for tests/metrics)
}

// NewDevice returns a blank device with the given geometry.
func NewDevice(geom Geometry) *Device {
	if !geom.Valid() {
		panic(fmt.Sprintf("fabric: invalid geometry %+v", geom))
	}
	return &Device{
		geom: geom,
		cols: make([][]cell, geom.Cols),
		pins: make([]PinConfig, geom.NumPins()),
		pinV: make([]bool, geom.NumPins()),
	}
}

// Erase returns the device to power-up: blank configuration RAM, every
// flip-flop and latched pin value low, no cell written yet. An erased
// device reads as NewDevice of the same geometry through every method,
// which is what lets a board serve its next job on the hardware of the
// last. It keeps the column blocks it zeroes, so the next job on the
// board makes none for the columns this one used.
func (d *Device) Erase() {
	for _, col := range d.cols {
		clear(col)
	}
	clear(d.pins)
	clear(d.pinV)
	d.used = 0
	d.configWrites = 0
}

// Geometry returns the device geometry.
func (d *Device) Geometry() Geometry { return d.geom }

// ConfigWrites returns the number of CLB cell writes since power-up.
//
//vfpgavet:ignore testonly -- observation hook: the fabric and core tests count configuration writes
func (d *Device) ConfigWrites() int64 { return d.configWrites }

// check panics unless (x, y) is a CLB of the device.
func (d *Device) check(x, y int) {
	if x < 0 || x >= d.geom.Cols || y < 0 || y >= d.geom.Rows {
		panic(fmt.Sprintf("fabric: CLB (%d,%d) outside %v", x, y, d.geom))
	}
}

// idx is the CLB's position in x-major scan order, the index of the
// per-CLB values propagate computes.
func (d *Device) idx(x, y int) int {
	d.check(x, y)
	return x*d.geom.Rows + y
}

// at returns the CLB at (x, y), blank if its column has no block yet. It
// returns a copy: a pointer goes only into a block that exists.
func (d *Device) at(x, y int) cell {
	d.check(x, y)
	if col := d.cols[x]; col != nil {
		return col[y]
	}
	return cell{}
}

// CLB returns the configuration of the CLB at (x, y).
func (d *Device) CLB(x, y int) CLBConfig { return d.at(x, y).cfg }

// WriteCLB writes the configuration of one CLB and resets its FF to the
// configured init value. This is the raw configuration-RAM write; the time
// it takes is accounted by Timing, not here.
func (d *Device) WriteCLB(x, y int, cfg CLBConfig) {
	d.check(x, y)
	col := d.cols[x]
	if col == nil {
		col = make([]cell, d.geom.Rows)
		d.cols[x] = col
	}
	d.used += count(cfg.Used) - count(col[y].cfg.Used)
	col[y] = cell{cfg: cfg, ff: cfg.FFInit}
	d.configWrites++
}

// ClearRegion erases every CLB in the region and disconnects any output
// pin whose driver lived in the region.
func (d *Device) ClearRegion(r Region) {
	for x := r.X; x < r.X+r.W; x++ {
		for y := r.Y; y < r.Y+r.H; y++ {
			d.check(x, y)
			if col := d.cols[x]; col != nil {
				d.used -= count(col[y].cfg.Used)
				col[y] = cell{}
			}
			d.configWrites++
		}
	}
	for p := range d.pins {
		cfg := &d.pins[p]
		if cfg.Mode == PinOutput && cfg.Driver.Kind == SrcCLB && r.Contains(int(cfg.Driver.X), int(cfg.Driver.Y)) {
			*cfg = PinConfig{}
		}
	}
}

// Pin returns the configuration of I/O block p.
func (d *Device) Pin(p int) PinConfig { return d.pins[p] }

// WritePin configures I/O block p.
func (d *Device) WritePin(p int, cfg PinConfig) {
	if p < 0 || p >= len(d.pins) {
		panic(fmt.Sprintf("fabric: pin %d outside %v", p, d.geom))
	}
	d.pins[p] = cfg
}

// SetPin latches the external value driven into input pin p.
func (d *Device) SetPin(p int, v bool) {
	if d.pins[p].Mode != PinInput {
		panic(fmt.Sprintf("fabric: SetPin on pin %d which is not an input", p))
	}
	d.pinV[p] = v
}

// ReadRegionState returns the FF values of every registered CLB in the
// region, in x-major scan order. This is the readback path the paper's
// "observability" requirement describes.
func (d *Device) ReadRegionState(r Region) []bool {
	var state []bool
	for x := r.X; x < r.X+r.W; x++ {
		for y := r.Y; y < r.Y+r.H; y++ {
			if c := d.at(x, y); c.cfg.Used && c.cfg.UseFF {
				state = append(state, c.ff)
			}
		}
	}
	return state
}

// WriteRegionState restores FF values saved by ReadRegionState. It panics
// if the vector length does not match the number of registered CLBs in
// the region (which would indicate restoring onto the wrong circuit).
func (d *Device) WriteRegionState(r Region, state []bool) {
	k := 0
	for x := r.X; x < r.X+r.W; x++ {
		for y := r.Y; y < r.Y+r.H; y++ {
			d.check(x, y)
			if col := d.cols[x]; col != nil && col[y].cfg.Used && col[y].cfg.UseFF {
				if k >= len(state) {
					panic("fabric: WriteRegionState vector too short")
				}
				col[y].ff = state[k]
				k++
			}
		}
	}
	if k != len(state) {
		panic(fmt.Sprintf("fabric: WriteRegionState vector has %d values for %d FFs", len(state), k))
	}
}

// UsedCells returns the number of configured CLBs on the whole device.
// It is a count WriteCLB, ClearRegion and Erase maintain, not a scan: the
// engine samples it after every load, eviction and relocation.
func (d *Device) UsedCells() int { return d.used }

// count is 1 for a used CLB and 0 for a blank one.
func count(used bool) int {
	if used {
		return 1
	}
	return 0
}

// EachUsedCLB calls f for every configured CLB in x-major scan order.
// This is the read path the static verifier uses to audit a configured
// device without reaching into the configuration RAM layout. cfg points
// into the configuration RAM: it is read-only and valid only during the
// call; a caller that keeps a configuration copies it (or asks CLB). A
// column with no block holds no configured CLB and is not scanned.
func (d *Device) EachUsedCLB(f func(x, y int, cfg *CLBConfig)) {
	for x, col := range d.cols {
		for y := range col {
			if c := &col[y].cfg; c.Used {
				f(x, y, c)
			}
		}
	}
}

// cellAt returns the cell at scan index i, which must lie in a column
// that has a block.
func (d *Device) cellAt(i int) *cell {
	return &d.cols[i/d.geom.Rows][i%d.geom.Rows]
}

// resolve returns the current value of a source given the per-CLB output
// values computed so far.
func (d *Device) resolve(s Source, outs []bool) bool {
	switch s.Kind {
	case SrcUnused, SrcConst0:
		return false
	case SrcConst1:
		return true
	case SrcPin:
		return d.pinV[s.Pin]
	case SrcCLB:
		return outs[d.idx(int(s.X), int(s.Y))]
	}
	panic(fmt.Sprintf("fabric: bad source kind %d", s.Kind))
}

// lutEval evaluates a CLB's LUT on the given input values.
func lutEval(lut LUT, in [LUTInputs]bool) bool {
	idx := 0
	for i, b := range in {
		if b {
			idx |= 1 << uint(i)
		}
	}
	return lut.At(idx)
}

// combOrder returns a topological order of the used CLBs over their
// combinational dependencies, as scan indices. A registered CLB's output
// is its FF, so it contributes no combinational dependency on its inputs.
// An error is returned if the configuration contains a combinational
// loop, or a used CLB reads an unused, unregistered one: that CLB is
// never ordered.
func (d *Device) combOrder() ([]int, error) {
	// The sort numbers the used CLBs densely, in scan order: used[k] is
	// node k's scan index and node[i]-1 scan index i's node (-1 unused).
	used := make([]int, 0, d.used)
	node := make([]int32, d.geom.NumCLBs())
	for x, col := range d.cols {
		for y := range col {
			if col[y].cfg.Used {
				used = append(used, x*d.geom.Rows+y)
				node[x*d.geom.Rows+y] = int32(len(used))
			}
		}
	}
	edges := func(add func(f, t int)) {
		for k, i := range used {
			for _, src := range d.cellAt(i).cfg.Inputs {
				if src.Kind != SrcCLB || d.at(int(src.X), int(src.Y)).cfg.UseFF {
					continue // a registered source is a sequential edge
				}
				j := int(node[d.idx(int(src.X), int(src.Y))]) - 1
				if j < 0 {
					j = k // an unused source is never ordered; a self-edge keeps its reader out too
				}
				add(j, k)
			}
		}
	}
	var o flat.Order[int]
	o.Reset(len(used))
	edges(o.Count)
	o.Counted()
	edges(o.Place)
	order := o.Sort(nil)
	if len(order) != len(used) {
		return nil, fmt.Errorf("fabric: configured logic contains a combinational loop (%d of %d CLBs ordered)", len(order), len(used))
	}
	for k, v := range order {
		order[k] = used[v]
	}
	return order, nil
}

// propagate computes all CLB outputs and the LUT (pre-register) values.
func (d *Device) propagate() (outs, lutOuts []bool, err error) {
	order, err := d.combOrder()
	if err != nil {
		return nil, nil, err
	}
	outs = make([]bool, d.geom.NumCLBs())
	lutOuts = make([]bool, d.geom.NumCLBs())
	// Registered CLB outputs are their FF values, available before any
	// combinational evaluation.
	for x, col := range d.cols {
		for y, c := range col {
			if c.cfg.Used && c.cfg.UseFF {
				outs[x*d.geom.Rows+y] = c.ff
			}
		}
	}
	for _, i := range order {
		cfg := &d.cellAt(i).cfg
		var in [LUTInputs]bool
		for k, src := range cfg.Inputs {
			in[k] = d.resolve(src, outs)
		}
		lutOuts[i] = lutEval(cfg.LUT, in)
		if !cfg.UseFF {
			outs[i] = lutOuts[i]
		}
	}
	return outs, lutOuts, nil
}

// outputPins collects the values on all configured output pins.
func (d *Device) outputPins(outs []bool) map[int]bool {
	res := make(map[int]bool)
	for p := range d.pins {
		if d.pins[p].Mode == PinOutput {
			res[p] = d.resolve(d.pins[p].Driver, outs)
		}
	}
	return res
}

// Eval propagates the current input pin values through the configured
// fabric combinationally (FF outputs hold) and returns the values on all
// output pins.
func (d *Device) Eval() (map[int]bool, error) {
	outs, _, err := d.propagate()
	if err != nil {
		return nil, err
	}
	return d.outputPins(outs), nil
}

// Step performs one global clock cycle: it propagates values, samples the
// output pins (pre-edge), then latches every registered CLB. All loaded
// circuits on the device share the clock, as on a real single-clock FPGA.
func (d *Device) Step() (map[int]bool, error) {
	outs, lutOuts, err := d.propagate()
	if err != nil {
		return nil, err
	}
	res := d.outputPins(outs)
	for x, col := range d.cols {
		for y := range col {
			if c := &col[y]; c.cfg.Used && c.cfg.UseFF {
				c.ff = lutOuts[x*d.geom.Rows+y]
			}
		}
	}
	return res, nil
}
