// Package bitstream encodes placed-and-routed designs as relocatable
// configuration data. A Bitstream stores region-relative coordinates
// only, so the loader can download the same configuration at any origin —
// the property the paper requires for variable partitions and garbage
// collection ("creating a relocatable circuit to be loaded virtually in
// any location of the FPGA").
//
// The package also splits bitstreams into fixed-size pages, the unit of
// the paper's pagination technique.
package bitstream

import (
	"fmt"

	"repro/internal/fabric"
	"repro/internal/route"
	"repro/internal/sim"
	"repro/internal/techmap"
)

// SrcKind enumerates relocatable signal sources.
type SrcKind uint8

// Relocatable source kinds.
const (
	SrcNone SrcKind = iota
	SrcRel          // the CLB at region-relative (DX, DY)
	SrcPort         // circuit input port Port
	SrcConst0
	SrcConst1
)

// Src is a relocatable signal source, packed like the fabric.Source it
// translates to: a compiled circuit is mostly these, and the strip cache
// holds every one of them.
type Src struct {
	Kind   SrcKind
	DX, DY int16
	Port   int16
}

// CellWrite is the configuration of one CLB at a region-relative location.
type CellWrite struct {
	X, Y   int16
	LUT    fabric.LUT
	Inputs [fabric.LUTInputs]Src
	UseFF  bool
	FFInit bool
}

// Bitstream is a relocatable configuration image for a W x H region.
type Bitstream struct {
	Name   string
	W, H   int
	Cells  []CellWrite
	NumIn  int
	NumOut int
	// OutDrivers gives, per output port, the source that drives it.
	OutDrivers []Src
	// Delay is the critical-path delay of the routed design.
	Delay sim.Time
	// FFCells is the number of registered cells (the state volume for
	// readback/restore).
	FFCells int
	// TotalHops is the total routed wire length (diagnostic).
	TotalHops int
}

// NumCells returns the number of configured CLBs.
func (b *Bitstream) NumCells() int { return len(b.Cells) }

// Region returns the bitstream's footprint placed at the given origin.
func (b *Bitstream) Region(x, y int) fabric.Region {
	return fabric.Region{X: x, Y: y, W: b.W, H: b.H}
}

// String renders a one-line summary.
func (b *Bitstream) String() string {
	return fmt.Sprintf("%s: %dx%d region, %d cells (%d FF), %d in, %d out, delay %v",
		b.Name, b.W, b.H, b.NumCells(), b.FFCells, b.NumIn, b.NumOut, b.Delay)
}

func relSrc(sig techmap.Signal, r *route.Result) Src {
	switch sig.Kind {
	case techmap.SigConst:
		if sig.Const {
			return Src{Kind: SrcConst1}
		}
		return Src{Kind: SrcConst0}
	case techmap.SigInput:
		return Src{Kind: SrcPort, Port: fabric.Coord(sig.Input)}
	case techmap.SigCell:
		l := r.P.Cells[sig.Cell]
		return Src{Kind: SrcRel, DX: fabric.Coord(l.X), DY: fabric.Coord(l.Y)}
	}
	panic("bitstream: bad signal kind")
}

// Generate encodes a routed design into a relocatable bitstream. The
// Bitstream shares nothing with r, so it outlives the next call of the
// stages that made r. A placement or port count beyond fabric.MaxDim
// panics: the flow never produces one for a valid geometry.
func Generate(r *route.Result, timing fabric.Timing) *Bitstream {
	m := r.P.Mapped
	b := &Bitstream{
		Name:      m.Name,
		W:         r.P.W,
		H:         r.P.H,
		NumIn:     m.NumInputs,
		NumOut:    len(m.Outputs),
		TotalHops: r.TotalHops,
		Delay:     r.CriticalPath(timing.LUTDelay, timing.HopDelay),
	}
	// Sized once; an empty list stays nil, which format version 1 writes
	// as null.
	if n := len(m.Cells); n > 0 {
		b.Cells = make([]CellWrite, n)
	}
	if n := len(m.Outputs); n > 0 {
		b.OutDrivers = make([]Src, n)
	}
	for ci := range m.Cells {
		cell := &m.Cells[ci]
		cw := &b.Cells[ci]
		*cw = CellWrite{
			X:      fabric.Coord(r.P.Cells[ci].X),
			Y:      fabric.Coord(r.P.Cells[ci].Y),
			LUT:    fabric.PackLUT(cell.LUT),
			UseFF:  cell.UseFF,
			FFInit: cell.FFInit,
		}
		for k, in := range cell.Inputs {
			cw.Inputs[k] = relSrc(in, r)
		}
		if cell.UseFF {
			b.FFCells++
		}
	}
	for o, sig := range m.Outputs {
		b.OutDrivers[o] = relSrc(sig, r)
	}
	return b
}

// PinBinding assigns device pins to the circuit's ports at load time.
type PinBinding struct {
	In  []int // device pin per input port; -1 leaves the port unbound
	Out []int // device pin per output port; -1 leaves the port unbound
}

// translate converts a relocatable source to a device source at origin
// (ox, oy) under the given pin binding.
func translate(s Src, ox, oy int, binding *PinBinding) (fabric.Source, error) {
	switch s.Kind {
	case SrcNone:
		return fabric.Source{}, nil
	case SrcConst0:
		return fabric.ConstSource(false), nil
	case SrcConst1:
		return fabric.ConstSource(true), nil
	case SrcRel:
		return fabric.CLBSource(ox+int(s.DX), oy+int(s.DY)), nil
	case SrcPort:
		if int(s.Port) >= len(binding.In) || binding.In[s.Port] < 0 {
			return fabric.Source{}, fmt.Errorf("bitstream: input port %d unbound", s.Port)
		}
		return fabric.PinSource(binding.In[s.Port]), nil
	}
	return fabric.Source{}, fmt.Errorf("bitstream: bad source kind %d", s.Kind)
}

// Apply downloads the bitstream onto dev with its region origin at
// (ox, oy), binding circuit ports to device pins. It returns the number of
// CLB cells and pins written, which the configuration port timing model
// converts to download time. Apply only writes configuration RAM; the
// caller is responsible for region reservation.
func (b *Bitstream) Apply(dev *fabric.Device, ox, oy int, binding *PinBinding) (cells, pins int, err error) {
	g := dev.Geometry()
	if !g.Bounds().ContainsRegion(b.Region(ox, oy)) {
		return 0, 0, fmt.Errorf("bitstream: %s at (%d,%d) exceeds device %v", b.Name, ox, oy, g)
	}
	if len(binding.In) != b.NumIn || len(binding.Out) != b.NumOut {
		return 0, 0, fmt.Errorf("bitstream: %s binding has %d/%d pins, want %d/%d",
			b.Name, len(binding.In), len(binding.Out), b.NumIn, b.NumOut)
	}
	return b.applyCells(dev, ox, oy, binding, b.Cells)
}

// ApplyPage downloads a single page (a subset of the cells) at the same
// origin and binding. The paged loader charges a page's download time
// and applies whole strips; the bitstream and compile tests download
// pages one by one and check the device against Apply's.
//
//vfpgavet:ignore testonly -- a page's download, which the bitstream and compile tests check
func (b *Bitstream) ApplyPage(dev *fabric.Device, ox, oy int, binding *PinBinding, page Page) (cells, pins int, err error) {
	g := dev.Geometry()
	if !g.Bounds().ContainsRegion(b.Region(ox, oy)) {
		return 0, 0, fmt.Errorf("bitstream: %s page %d at (%d,%d) exceeds device %v", b.Name, page.Index, ox, oy, g)
	}
	// Pages never configure output pins; the full-circuit port map is
	// established by the loader once.
	c, _, err := b.applyCells(dev, ox, oy, binding, page.Cells)
	return c, 0, err
}

func (b *Bitstream) applyCells(dev *fabric.Device, ox, oy int, binding *PinBinding, cws []CellWrite) (cells, pins int, err error) {
	for i := range cws {
		cw := &cws[i]
		cfg := fabric.CLBConfig{Used: true, LUT: cw.LUT, UseFF: cw.UseFF, FFInit: cw.FFInit}
		for k, s := range cw.Inputs {
			src, err := translate(s, ox, oy, binding)
			if err != nil {
				return cells, pins, err
			}
			cfg.Inputs[k] = src
		}
		dev.WriteCLB(ox+int(cw.X), oy+int(cw.Y), cfg)
		cells++
	}
	for _, pin := range binding.In {
		if pin < 0 {
			continue
		}
		dev.WritePin(pin, fabric.PinConfig{Mode: fabric.PinInput})
		pins++
	}
	for o, pin := range binding.Out {
		if pin < 0 {
			continue
		}
		drv, err := translate(b.OutDrivers[o], ox, oy, binding)
		if err != nil {
			return cells, pins, err
		}
		dev.WritePin(pin, fabric.PinConfig{Mode: fabric.PinOutput, Driver: drv})
		pins++
	}
	return cells, pins, nil
}

// Page is a fixed-size portion of a bitstream: the unit of pagination.
type Page struct {
	Index int
	Cells []CellWrite
}

// Pages splits the bitstream into pages of at most pageCells CLBs each,
// in deterministic cell order. The last page may be smaller.
func (b *Bitstream) Pages(pageCells int) []Page {
	if pageCells <= 0 {
		panic("bitstream: non-positive page size")
	}
	var pages []Page
	for start := 0; start < len(b.Cells); start += pageCells {
		end := start + pageCells
		if end > len(b.Cells) {
			end = len(b.Cells)
		}
		pages = append(pages, Page{Index: len(pages), Cells: b.Cells[start:end]})
	}
	return pages
}

// ConfigCost returns the partial-reconfiguration time to download the
// whole bitstream (cells plus bound pins).
func (b *Bitstream) ConfigCost(t fabric.Timing) sim.Time {
	return t.PartialConfigTime(b.NumCells(), b.NumIn+b.NumOut)
}
