package lint

import (
	"fmt"

	"repro/internal/bitstream"
)

func cellPos(name string, i int, x, y int16) string {
	return fmt.Sprintf("%s: cell %d at (%d,%d)", name, i, x, y)
}

// passBitstreamBounds verifies that a relocatable bitstream is
// self-contained inside its claimed W x H region: every cell write and
// every region-relative source lands inside the region, every port
// reference is in range, no two writes target the same cell, and —
// when a device geometry is supplied — the region and port count fit
// the device. These are exactly the properties that make a bitstream
// safe to download at any origin (the paper's relocatable partitions)
// and to split into pages that never write outside the region.
func passBitstreamBounds(t *Target, r *Reporter) {
	b := t.Bitstream
	if b == nil {
		return
	}
	if b.W <= 0 || b.H <= 0 {
		r.Errorf(b.Name+": region", "empty region %dx%d", b.W, b.H)
		return
	}
	inRegion := func(x, y int16) bool { return x >= 0 && int(x) < b.W && y >= 0 && int(y) < b.H }
	occupied := map[[2]int16]int{}
	for i := range b.Cells {
		cw := &b.Cells[i]
		pos := cellPos(b.Name, i, cw.X, cw.Y)
		if !inRegion(cw.X, cw.Y) {
			r.Errorf(pos, "cell write outside the claimed %dx%d region", b.W, b.H)
			continue
		}
		if prev, dup := occupied[[2]int16{cw.X, cw.Y}]; dup {
			r.Errorf(pos, "multiply-driven cell: already written by cell %d", prev)
		} else {
			occupied[[2]int16{cw.X, cw.Y}] = i
		}
		for k, s := range cw.Inputs {
			checkSrc(r, b, fmt.Sprintf("%s input %d", pos, k), s, inRegion)
		}
	}
	if len(b.OutDrivers) != b.NumOut {
		r.Errorf(b.Name+": outputs", "%d output drivers for %d output ports", len(b.OutDrivers), b.NumOut)
	}
	for o, s := range b.OutDrivers {
		opos := fmt.Sprintf("%s: output %d", b.Name, o)
		if s.Kind == bitstream.SrcNone {
			r.Errorf(opos, "output port has no driver")
			continue
		}
		checkSrc(r, b, opos, s, inRegion)
	}
	// Sources must reference configured cells, not just in-region holes:
	// a read from an unconfigured CLB evaluates to garbage after
	// relocation next to a neighbor.
	for i := range b.Cells {
		cw := &b.Cells[i]
		for k, s := range cw.Inputs {
			if s.Kind == bitstream.SrcRel && inRegion(s.DX, s.DY) {
				if _, ok := occupied[[2]int16{s.DX, s.DY}]; !ok {
					r.Errorf(cellPos(b.Name, i, cw.X, cw.Y),
						"input %d reads unconfigured cell (%d,%d)", k, s.DX, s.DY)
				}
			}
		}
	}
	for o, s := range b.OutDrivers {
		if s.Kind == bitstream.SrcRel && inRegion(s.DX, s.DY) {
			if _, ok := occupied[[2]int16{s.DX, s.DY}]; !ok {
				r.Errorf(fmt.Sprintf("%s: output %d", b.Name, o), "driven by unconfigured cell (%d,%d)", s.DX, s.DY)
			}
		}
	}
	if g := t.Geometry; g != nil {
		if b.W > g.Cols || b.H > g.Rows {
			r.Errorf(b.Name+": region", "%dx%d region exceeds device %v", b.W, b.H, *g)
		}
		if want := b.NumIn + b.NumOut; want > g.NumPins() {
			r.Errorf(b.Name+": ports", "%d ports can never bind to %d device pins without multiplexing", want, g.NumPins())
		}
	}
}

func checkSrc(r *Reporter, b *bitstream.Bitstream, pos string, s bitstream.Src, inRegion func(x, y int16) bool) {
	switch s.Kind {
	case bitstream.SrcNone, bitstream.SrcConst0, bitstream.SrcConst1:
	case bitstream.SrcRel:
		if !inRegion(s.DX, s.DY) {
			r.Errorf(pos, "region-relative source (%d,%d) outside the claimed %dx%d region", s.DX, s.DY, b.W, b.H)
		}
	case bitstream.SrcPort:
		if s.Port < 0 || int(s.Port) >= b.NumIn {
			r.Errorf(pos, "references input port %d of %d", s.Port, b.NumIn)
		}
	default:
		r.Errorf(pos, "unknown source kind %d", s.Kind)
	}
}

// passPageCoverage verifies the pagination invariant: the page set
// partitions the bitstream's cells exactly — every configured cell on
// exactly one page, no page writing cells the bitstream does not own,
// page indices dense and ordered, and no page exceeding the page size.
// A violation means demand paging would leave holes in (or scribble
// over) the configured region.
func passPageCoverage(t *Target, r *Reporter) {
	b := t.Bitstream
	if b == nil {
		return
	}
	pages := t.Pages
	if pages == nil {
		if t.PageCells <= 0 {
			return
		}
		pages = b.Pages(t.PageCells)
	}
	// Multiset of cells the bitstream owns, keyed by coordinate (bounds
	// duplicates are bitstream-bounds findings; coverage compares 1:1).
	want := map[[2]int16]int{}
	for i := range b.Cells {
		want[[2]int16{b.Cells[i].X, b.Cells[i].Y}]++
	}
	got := map[[2]int16]int{}
	for pi, p := range pages {
		pos := fmt.Sprintf("%s: page %d", b.Name, pi)
		if p.Index != pi {
			r.Errorf(pos, "page index %d out of sequence (expected %d)", p.Index, pi)
		}
		if len(p.Cells) == 0 {
			r.Errorf(pos, "empty page")
		}
		if t.PageCells > 0 && len(p.Cells) > t.PageCells {
			r.Errorf(pos, "page holds %d cells, page size is %d", len(p.Cells), t.PageCells)
		}
		for i := range p.Cells {
			got[[2]int16{p.Cells[i].X, p.Cells[i].Y}]++
		}
	}
	for xy, n := range got {
		w := want[xy]
		switch {
		case w == 0:
			r.Errorf(fmt.Sprintf("%s: pages", b.Name), "cell (%d,%d) paged in but not part of the bitstream", xy[0], xy[1])
		case n > w:
			r.Errorf(fmt.Sprintf("%s: pages", b.Name), "cell (%d,%d) covered by %d pages", xy[0], xy[1], n)
		}
	}
	missing := 0
	for xy, w := range want {
		if got[xy] < w {
			missing += w - got[xy]
			if missing <= 8 { // cap the spam on badly-torn page sets
				r.Errorf(fmt.Sprintf("%s: pages", b.Name), "cell (%d,%d) not covered by any page", xy[0], xy[1])
			}
		}
	}
	if missing > 8 {
		r.Errorf(fmt.Sprintf("%s: pages", b.Name), "%d further cells not covered by any page", missing-8)
	}
}
