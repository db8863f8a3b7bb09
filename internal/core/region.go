package core

// Amorphous region support (Nguyen & Hoe's flexible boundaries): the
// device's columns are tracked as contiguous spans whose boundaries
// slide, instead of the paper's disjoint split/merge partitions.
// RegionMap is the manager-side table: owner-carrying spans with
// grow/shrink/slide operations, used by PartitionManager (which keeps
// §4's policy on top) and AmorphousManager (exact-fit spans, neighbor
// sliding). FragStats is the map's measure of its free space.

import (
	"fmt"
	"sort"
)

// FragStats measures external fragmentation of a column range: how much
// space is free and how much of it is usable as one contiguous hole.
type FragStats struct {
	Cols        int // columns tracked
	FreeCols    int // total free columns
	LargestFree int // widest contiguous free span
}

// Ratio returns the external-fragmentation ratio 1 - largest/free: 0
// when the free space is one contiguous hole (or there is none),
// approaching 1 as it shatters into unusable slivers.
func (f FragStats) Ratio() float64 {
	if f.FreeCols == 0 {
		return 0
	}
	return 1 - float64(f.LargestFree)/float64(f.FreeCols)
}

func (f *FragStats) observe(w int) {
	f.FreeCols += w
	f.LargestFree = max(f.LargestFree, w)
}

// Span is one contiguous column range of a RegionMap. Owner is
// manager-defined payload; nil marks the span free. Occupied spans keep
// object identity across every map operation (including Move), so a
// manager can hold the pointer in its own tables until it releases the
// span. The map recycles the span objects it merges away, so two other
// pointers are dead, not just stale: a free-span pointer after the next
// mutation (it may already name a different span, free or occupied), and
// a released span's pointer from the moment Release returns.
type Span struct {
	X, W  int
	Owner any
}

// Free reports whether the span is unowned.
func (s *Span) Free() bool { return s.Owner == nil }

// RegionMap tracks contiguous, non-overlapping column spans over a
// [0, cols) device. A sliding map (NewRegionMap) tiles the whole range
// — free space is explicit and coalesced by construction, boundaries
// move on Alloc/Release/Move. A fixed map (NewFixedRegionMap) has
// static slots that never split, merge or move, like §4's fixed
// partition table.
//
// A map reuses its span objects: the free spans coalesce merges away,
// the entries Move retires and, when the map is renewed, every span it
// held go onto spare, and every span the map carves (a new map's spans,
// Alloc's claim, Move's husk and free remainder) comes from spare
// before the allocator. A span is at least one column wide, so a map
// never makes more than cols+1 span objects (the one being Move's husk,
// made while the moving span is still in the table) for the widest
// device it has covered, and spare is bounded by that column count.
type RegionMap struct {
	cols  int
	fixed bool
	spans []*Span // sorted by X, non-overlapping
	spare []*Span // out of the table, ready for reuse
}

// NewRegionMap returns a sliding map with one free span covering the
// whole device, renewing used (nil: a new map; see renewRegionMap).
func NewRegionMap(cols int, used *RegionMap) *RegionMap {
	rm := renewRegionMap(used, cols, false)
	rm.spans = append(rm.spans, rm.newSpan(0, cols, nil))
	return rm
}

// NewFixedRegionMap carves static slots of the given widths left to
// right; leftover columns beyond the configured widths are unusable (as
// with a partition table that does not cover the disk). It renews used
// as NewRegionMap does.
func NewFixedRegionMap(widths []int, cols int, used *RegionMap) (*RegionMap, error) {
	rm := renewRegionMap(used, cols, true)
	x := 0
	for _, w := range widths {
		if w <= 0 || x+w > cols {
			return nil, fmt.Errorf("core: fixed partition widths %v exceed %d columns", widths, cols)
		}
		rm.spans = append(rm.spans, rm.newSpan(x, w, nil))
		x += w
	}
	if len(rm.spans) == 0 {
		return nil, fmt.Errorf("core: fixed mode requires FixedWidths")
	}
	return rm, nil
}

// renewRegionMap empties used into a map over cols columns, sliding or
// fixed, and returns it; nil gets a new map. Every span object used held
// goes onto spare, freed, and its table keeps its array, so a renewed
// map carves its spans without allocating. Any pointer into used is dead
// from here on.
func renewRegionMap(used *RegionMap, cols int, fixed bool) *RegionMap {
	if used == nil {
		return &RegionMap{cols: cols, fixed: fixed}
	}
	for _, s := range used.spans {
		s.Owner = nil
	}
	spare := append(used.spare, used.spans...)
	*used = RegionMap{cols: cols, fixed: fixed, spans: used.spans[:0], spare: spare}
	return used
}

// Cols returns the tracked column count.
func (rm *RegionMap) Cols() int { return rm.cols }

// FindFree returns a free span of width >= need per the fit policy
// (first-fit: lowest origin; best-fit: smallest adequate width, lowest
// origin on ties), or nil.
func (rm *RegionMap) FindFree(need int, fit FitPolicy) *Span {
	var best *Span
	for _, s := range rm.spans {
		if !s.Free() || s.W < need {
			continue
		}
		if best == nil {
			best = s
			if fit == FirstFit {
				return best
			}
			continue
		}
		if s.W < best.W {
			best = s
		}
	}
	return best
}

// Alloc claims need columns from free span s for owner. In a fixed map
// (and on exact fit) the whole span is claimed; otherwise the front is
// carved off and the remainder stays free, its boundary slid right. It
// returns the claimed span.
func (rm *RegionMap) Alloc(s *Span, need int, owner any) *Span {
	if !s.Free() || s.W < need || need <= 0 {
		panic(fmt.Sprintf("core: region alloc of %d columns from span x=%d w=%d free=%v", need, s.X, s.W, s.Free()))
	}
	if rm.fixed || s.W == need {
		s.Owner = owner
		return s
	}
	claimed := rm.newSpan(s.X, need, owner)
	s.X += need
	s.W -= need
	rm.insert(claimed)
	return claimed
}

// Release frees s. In a sliding map adjacent free spans coalesce, and
// the caller's pointer is dead from here on: the map may merge s away
// and hand the object out again as another span.
func (rm *RegionMap) Release(s *Span) {
	s.Owner = nil
	if !rm.fixed {
		rm.coalesce(s)
	}
}

// Move slides occupied span s so its origin becomes newX. The
// destination must be covered by free space and s's own extent (the
// ledger's Relocate clears the old strip before writing the new one, so
// overlap is fine). s keeps its identity: callers' pointers stay valid.
func (rm *RegionMap) Move(s *Span, newX int) {
	if rm.fixed {
		panic("core: region move in a fixed map")
	}
	if s.Free() {
		panic("core: region move of a free span")
	}
	if newX == s.X {
		return
	}
	owner, w := s.Owner, s.W
	// Free the old extent, letting it coalesce with its neighbors — but
	// keep the table entry in a husk object so s can be reused as the
	// claimed destination span.
	s.Owner = nil
	rm.coalesce(s)
	rm.spans[rm.index(s)] = rm.newSpan(s.X, s.W, nil)
	// The destination must now lie inside one free span (possibly the
	// husk itself).
	var f *Span
	for _, cand := range rm.spans {
		if cand.Free() && cand.X <= newX && newX+w <= cand.X+cand.W {
			f = cand
			break
		}
	}
	if f == nil {
		panic(fmt.Sprintf("core: region move target [%d,%d) is not free", newX, newX+w))
	}
	fx, fw := f.X, f.W
	s.X, s.W, s.Owner = newX, w, owner
	if newX > fx {
		f.W = newX - fx
		rm.insert(s)
	} else {
		rm.spans[rm.index(f)] = s
		rm.spare = append(rm.spare, f)
	}
	if end := newX + w; end < fx+fw {
		rm.insert(rm.newSpan(end, fx+fw-end, nil))
	}
}

// Movable reports whether boundaries slide: spans split, merge and move.
func (rm *RegionMap) Movable() bool { return !rm.fixed }

// MaxSlotWidth returns the widest span a circuit could ever occupy: the
// whole range when boundaries slide, the widest slot of a fixed table.
func (rm *RegionMap) MaxSlotWidth() int {
	if !rm.fixed {
		return rm.cols
	}
	w := 0
	for _, s := range rm.spans {
		if s.W > w {
			w = s.W
		}
	}
	return w
}

// Frag computes the live fragmentation statistics over the map's free
// spans. In a sliding map free spans are coalesced by construction, so
// the numbers are exact; in a fixed map each free slot counts on its
// own (slots never merge).
func (rm *RegionMap) Frag() FragStats {
	f := FragStats{Cols: rm.cols}
	for _, s := range rm.spans {
		if s.Free() {
			f.observe(s.W)
		}
	}
	return f
}

// FreeCols returns the total free width and the largest free span — the
// external-fragmentation measure of experiment F4, shared by every
// consumer through FragStats.
func (rm *RegionMap) FreeCols() (total, largest int) {
	f := rm.Frag()
	return f.FreeCols, f.LargestFree
}

// FreeList returns the free spans by value, sorted by origin.
func (rm *RegionMap) FreeList() []Span {
	var out []Span
	for _, s := range rm.spans {
		if s.Free() {
			out = append(out, *s)
		}
	}
	return out
}

// SpansIn returns the occupied spans lying fully inside [lo, hi),
// sorted by origin.
func (rm *RegionMap) SpansIn(lo, hi int) []*Span {
	var out []*Span
	for _, s := range rm.spans {
		if !s.Free() && s.X >= lo && s.X+s.W <= hi {
			out = append(out, s)
		}
	}
	return out
}

// newSpan returns a span object for a carved extent: a spare one when
// the map has one, a new one otherwise.
func (rm *RegionMap) newSpan(x, w int, owner any) *Span {
	n := len(rm.spare)
	if n == 0 {
		return &Span{X: x, W: w, Owner: owner}
	}
	s := rm.spare[n-1]
	rm.spare[n-1] = nil
	rm.spare = rm.spare[:n-1]
	s.X, s.W, s.Owner = x, w, owner
	return s
}

// index returns s's position in the table.
func (rm *RegionMap) index(s *Span) int {
	i := sort.Search(len(rm.spans), func(i int) bool { return rm.spans[i].X >= s.X })
	if i < len(rm.spans) && rm.spans[i] == s {
		return i
	}
	panic("core: span not in region map")
}

// insert places s at its sorted position.
func (rm *RegionMap) insert(s *Span) {
	i := sort.Search(len(rm.spans), func(i int) bool { return rm.spans[i].X >= s.X })
	rm.spans = append(rm.spans, nil)
	copy(rm.spans[i+1:], rm.spans[i:])
	rm.spans[i] = s
}

// coalesce merges s with adjacent free neighbors; s survives, the
// neighbors leave the table for spare.
func (rm *RegionMap) coalesce(s *Span) {
	i := rm.index(s)
	for i+1 < len(rm.spans) {
		n := rm.spans[i+1]
		if !n.Free() || s.X+s.W != n.X {
			break
		}
		s.W += n.W
		rm.spans = append(rm.spans[:i+1], rm.spans[i+2:]...)
		rm.spare = append(rm.spare, n)
	}
	for i > 0 {
		n := rm.spans[i-1]
		if !n.Free() || n.X+n.W != s.X {
			break
		}
		s.X = n.X
		s.W += n.W
		rm.spans = append(rm.spans[:i-1], rm.spans[i:]...)
		rm.spare = append(rm.spare, n)
		i--
	}
}
