// Package fabric models a symmetrical-array FPGA device of the class the
// paper targets (Xilinx XC4000-like): a rectangular array of configurable
// logic blocks (CLBs), each a 4-input LUT with an optional D flip-flop,
// perimeter I/O blocks, and a configuration RAM written through a serial
// configuration port.
//
// The device executes whatever is configured into it: functional
// evaluation reconstructs the logic graph from the CLB configurations and
// propagates values, independent of the netlist the bitstream came from.
// This is what lets the tests prove that a compiled, placed, routed and
// relocated circuit still computes the original function.
package fabric

import "fmt"

// Geometry describes the physical dimensions of a device.
type Geometry struct {
	Cols, Rows int // CLB array size
	// TracksPerChannel is the routing capacity between adjacent tiles; the
	// router refuses placements whose congestion exceeds it.
	TracksPerChannel int
	// PinsPerSide is the number of I/O blocks on each device edge.
	PinsPerSide int
}

// DefaultGeometry models an XC4013-class device: a 24x24 CLB array
// (576 CLBs) with 192 user pins. The paper cites devices "up to 250K
// gates ... with some hundreds of input and output pins".
func DefaultGeometry() Geometry {
	return Geometry{Cols: 24, Rows: 24, TracksPerChannel: 12, PinsPerSide: 48}
}

// NumCLBs returns the total CLB count.
func (g Geometry) NumCLBs() int { return g.Cols * g.Rows }

// NumPins returns the total I/O pin count.
func (g Geometry) NumPins() int { return 4 * g.PinsPerSide }

// Valid reports whether the geometry is usable: positive everywhere, and
// no more columns, rows or pins than a packed Source can name (MaxDim).
func (g Geometry) Valid() bool {
	return g.Cols > 0 && g.Cols <= MaxDim && g.Rows > 0 && g.Rows <= MaxDim &&
		g.TracksPerChannel > 0 && g.PinsPerSide > 0 && g.PinsPerSide <= MaxDim/4
}

// Bounds returns the full-device region.
func (g Geometry) Bounds() Region { return Region{X: 0, Y: 0, W: g.Cols, H: g.Rows} }

// String renders the geometry as "24x24/192pin".
func (g Geometry) String() string {
	return fmt.Sprintf("%dx%d/%dpin", g.Cols, g.Rows, g.NumPins())
}

// Region is a rectangle of CLBs: the unit of partitioning, relocation and
// partial reconfiguration.
type Region struct {
	X, Y, W, H int
}

// Empty reports whether the region contains no cells.
func (r Region) Empty() bool { return r.W <= 0 || r.H <= 0 }

// Contains reports whether the CLB at (x, y) lies inside the region.
func (r Region) Contains(x, y int) bool {
	return x >= r.X && x < r.X+r.W && y >= r.Y && y < r.Y+r.H
}

// ContainsRegion reports whether s lies entirely inside r.
func (r Region) ContainsRegion(s Region) bool {
	if s.Empty() {
		return true
	}
	return s.X >= r.X && s.Y >= r.Y && s.X+s.W <= r.X+r.W && s.Y+s.H <= r.Y+r.H
}

// String renders the region as "(x,y)+WxH".
func (r Region) String() string {
	return fmt.Sprintf("(%d,%d)+%dx%d", r.X, r.Y, r.W, r.H)
}
