package fabric

import (
	"encoding/json"
	"fmt"
	"math"
	"runtime"

	"repro/internal/flat"
)

// MaxDim is the largest column, row, pin or port count the configuration
// plane represents: every coordinate and index in it is an int16. A byte
// would hold the default board's 192 pins and nothing larger, and the
// fields are signed so that a corrupt reference one step off an edge
// stays visible to Check as the negative it is.
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
//
//vfpgavet:ignore testonly -- observation hook: the fabric and core tests read back a pin's configuration
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

// cellAt returns the cell at scan index i, which must lie in a column
// that has a block.
func (d *Device) cellAt(i int) *cell {
	return &d.cols[i/d.geom.Rows][i%d.geom.Rows]
}

// checkSet is the working set of one Check, Eval or Step, kept from call
// to call: a node number for each CLB, the sort over the used CLBs and
// its order, and the values Eval and Step compute in that order.
type checkSet struct {
	node    []int32 // by scan index: 1 + the CLB's node number, 0 for a blank CLB
	used    []int   // by node number: the used CLB's scan index
	order   flat.Order[int]
	sorted  []int  // the used CLBs' scan indices in evaluation order
	outs    []bool // by scan index: the CLB's output
	lutOuts []bool // by scan index: the CLB's LUT value, its FF's next state
}

// checkSets holds the working sets no call is using, at most
// GOMAXPROCS of them: a daemon audits each board after every job on the
// board's own goroutine, and each audit after the first on a goroutine
// finds its arrays already grown. They are not kept on a Device, which a
// cold job makes anew.
var checkSets = flat.NewFreeList[struct{}, *checkSet](runtime.GOMAXPROCS(0))

// takeCheckSet takes a free working set, or a new one; give it back to
// checkSets.
func takeCheckSet() *checkSet {
	if w := checkSets.Take(struct{}{}); w != nil {
		return w
	}
	return new(checkSet)
}

// Check returns the first rule of a configured device that d breaks, or
// nil. Every used CLB input and every output-pin driver is a constant, a
// used CLB inside the device or a pin inside the device configured as an
// input, of a source kind the device knows: anything else reads
// unconfigured fabric, garbage once a neighbour unloads. The
// combinational logic is acyclic; a registered CLB's output is its
// flip-flop, so a CLB reading it does not wait on its inputs. The CLB
// inputs are checked first, in scan order, then the output pins, then
// the loop. Eval and Step refuse a device with Check's error, and a
// manager's Check reports it under the manager's name.
func (d *Device) Check() error {
	w := takeCheckSet()
	defer checkSets.Give(struct{}{}, w)
	return d.order(w)
}

// order checks d as Check does and leaves in w its used CLBs and their
// evaluation order.
func (d *Device) order(w *checkSet) error {
	rows := d.geom.Rows
	w.node = flat.Zeroed(w.node, d.geom.NumCLBs())
	w.used = w.used[:0]
	for x, col := range d.cols {
		for y := range col {
			if col[y].cfg.Used {
				w.used = append(w.used, x*rows+y)
				w.node[x*rows+y] = int32(len(w.used))
			}
		}
	}
	for _, i := range w.used {
		for k, s := range d.cellAt(i).cfg.Inputs {
			if fault := d.readFault(s, w.node); fault != "" {
				return fmt.Errorf("CLB (%d,%d) input %d: %s", i/rows, i%rows, k, fault)
			}
		}
	}
	for p, cfg := range d.pins {
		if cfg.Mode != PinOutput {
			continue
		}
		if fault := d.readFault(cfg.Driver, w.node); fault != "" {
			return fmt.Errorf("output pin %d: %s", p, fault)
		}
	}
	// An edge runs from each combinational CLB to every CLB that reads it.
	edges := func(add func(f, t int)) {
		for k, i := range w.used {
			for _, s := range d.cellAt(i).cfg.Inputs {
				if j := int(s.X)*rows + int(s.Y); s.Kind == SrcCLB && !d.cellAt(j).cfg.UseFF {
					add(int(w.node[j])-1, k)
				}
			}
		}
	}
	w.order.Reset(len(w.used))
	edges(w.order.Count)
	w.order.Counted()
	edges(w.order.Place)
	w.sorted = w.order.Sort(w.sorted[:0])
	if unordered := len(w.used) - len(w.sorted); unordered > 0 {
		return fmt.Errorf("logic: configured fabric contains a combinational loop (%d of %d CLBs unordered)", unordered, len(w.used))
	}
	for k, v := range w.sorted {
		w.sorted[k] = w.used[v]
	}
	return nil
}

// readFault returns what is wrong with a read of s, or "" for a sound
// one; node is order's, 0 for a blank CLB.
func (d *Device) readFault(s Source, node []int32) string {
	switch s.Kind {
	case SrcUnused, SrcConst0, SrcConst1:
		return ""
	case SrcCLB:
		if s.X < 0 || int(s.X) >= d.geom.Cols || s.Y < 0 || int(s.Y) >= d.geom.Rows {
			return fmt.Sprintf("reads CLB (%d,%d) outside device %v", s.X, s.Y, d.geom)
		}
		if node[int(s.X)*d.geom.Rows+int(s.Y)] == 0 {
			return fmt.Sprintf("reads unconfigured CLB (%d,%d)", s.X, s.Y)
		}
		return ""
	case SrcPin:
		if s.Pin < 0 || int(s.Pin) >= len(d.pins) {
			return fmt.Sprintf("reads pin %d outside device %v", s.Pin, d.geom)
		}
		if d.pins[s.Pin].Mode != PinInput {
			return fmt.Sprintf("reads pin %d which is not configured as an input", s.Pin)
		}
		return ""
	}
	return fmt.Sprintf("unknown source kind %d", s.Kind)
}

// resolve returns the current value of a source Check passed, given the
// per-CLB output values computed so far.
func (d *Device) resolve(s Source, outs []bool) bool {
	switch s.Kind {
	case SrcConst1:
		return true
	case SrcPin:
		return d.pinV[s.Pin]
	case SrcCLB:
		return outs[int(s.X)*d.geom.Rows+int(s.Y)]
	}
	return false
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

// propagate computes into w every used CLB's output and LUT
// (pre-register) value, in the order order left there.
func (d *Device) propagate(w *checkSet) {
	w.outs = flat.Zeroed(w.outs, d.geom.NumCLBs())
	w.lutOuts = flat.Zeroed(w.lutOuts, d.geom.NumCLBs())
	// Registered CLB outputs are their FF values, available before any
	// combinational evaluation.
	for _, i := range w.used {
		if c := d.cellAt(i); c.cfg.UseFF {
			w.outs[i] = c.ff
		}
	}
	for _, i := range w.sorted {
		cfg := &d.cellAt(i).cfg
		var in [LUTInputs]bool
		for k, src := range cfg.Inputs {
			in[k] = d.resolve(src, w.outs)
		}
		w.lutOuts[i] = lutEval(cfg.LUT, in)
		if !cfg.UseFF {
			w.outs[i] = w.lutOuts[i]
		}
	}
}

// settle checks d, propagates the current input pin values through it
// into w and returns the values on all configured output pins.
func (d *Device) settle(w *checkSet) (map[int]bool, error) {
	if err := d.order(w); err != nil {
		return nil, err
	}
	d.propagate(w)
	res := make(map[int]bool)
	for p := range d.pins {
		if d.pins[p].Mode == PinOutput {
			res[p] = d.resolve(d.pins[p].Driver, w.outs)
		}
	}
	return res, nil
}

// Eval propagates the current input pin values through the configured
// fabric combinationally (FF outputs hold) and returns the values on all
// output pins. It refuses a device Check refuses, with Check's error.
func (d *Device) Eval() (map[int]bool, error) {
	w := takeCheckSet()
	defer checkSets.Give(struct{}{}, w)
	return d.settle(w)
}

// Step performs one global clock cycle: it propagates values, samples the
// output pins (pre-edge), then latches every registered CLB. All loaded
// circuits on the device share the clock, as on a real single-clock FPGA.
// It refuses a device Check refuses, with Check's error, and latches
// nothing then.
func (d *Device) Step() (map[int]bool, error) {
	w := takeCheckSet()
	defer checkSets.Give(struct{}{}, w)
	res, err := d.settle(w)
	if err != nil {
		return nil, err
	}
	for _, i := range w.used {
		if c := d.cellAt(i); c.cfg.UseFF {
			c.ff = w.lutOuts[i]
		}
	}
	return res, nil
}
