package lint

import (
	"cmp"
	"fmt"
	"slices"
)

// passRegionState audits a column-map snapshot — §4's partition table or
// an amorphous region map, the same RegionMap underneath — against the
// invariants the allocator promises: every span inside the device, no two
// owners sharing a column (spans pairwise disjoint), free spans carrying
// no stale circuit or owner claim, and occupied spans naming a circuit. A
// sliding map must also tile the device exactly (free space is explicit,
// never dropped) with adjacent free spans coalesced; a table of fixed
// slots never merges them and may leave an unusable tail, but no gap
// before it. Fragmentation and overlap bugs are the dominant failure mode
// of virtual areas, so this pass is the one to run after every
// Remove/compact in stress tests.
func passRegionState(t *Target, r *Reporter) {
	if len(t.Regions) == 0 {
		return
	}
	name := t.Name
	if name == "" {
		name = "regions"
	}
	// A manager's snapshot is sorted by origin already: only another is
	// copied to be sorted.
	views := t.Regions
	if byX := func(a, b RegionView) int { return cmp.Compare(a.X, b.X) }; !slices.IsSortedFunc(views, byX) {
		views = slices.Clone(views)
		slices.SortStableFunc(views, byX)
	}
	rpos := func(v RegionView) string {
		return fmt.Sprintf("%s: span x=%d w=%d", name, v.X, v.W)
	}
	for _, v := range views {
		if v.W <= 0 {
			r.Errorf(rpos(v), "non-positive width")
		}
		if v.X < 0 {
			r.Errorf(rpos(v), "negative origin")
		}
		if t.Cols > 0 && v.X+v.W > t.Cols {
			r.Errorf(rpos(v), "extends past the device's %d columns", t.Cols)
		}
		if v.Free {
			if v.Circuit != "" {
				r.Errorf(rpos(v), "free span still claims circuit %q", v.Circuit)
			}
			if v.Owner != "" {
				r.Errorf(rpos(v), "free span still claims owner %q", v.Owner)
			}
		} else if v.Circuit == "" {
			r.Errorf(rpos(v), "occupied span names no circuit")
		}
	}
	at := 0
	for i, v := range views {
		if v.X < at {
			r.Errorf(rpos(v), "overlaps the previous span by %d column(s): two regions share a column", at-v.X)
		} else if v.X > at {
			if t.FixedSlots {
				r.Errorf(rpos(v), "gap of %d column(s) inside a fixed slot table", v.X-at)
			} else {
				r.Errorf(rpos(v), "columns %d..%d leaked: not covered by any span", at, v.X-1)
			}
		}
		if v.X+v.W > at {
			at = v.X + v.W
		}
		if !t.FixedSlots && i > 0 && v.Free && views[i-1].Free && views[i-1].X+views[i-1].W == v.X {
			r.Errorf(rpos(v), "adjacent free spans not coalesced (previous ends at %d)", v.X)
		}
	}
	if !t.FixedSlots && t.Cols > 0 && at < t.Cols {
		r.Errorf(fmt.Sprintf("%s: map", name), "columns %d..%d leaked: a sliding map must tile the device", at, t.Cols-1)
	}
}

// passFabricConfig audits a configured device against the rules
// fabric.(*Device).Check states: every used CLB input and every
// output-pin driver reads a constant, a used CLB or an input pin inside
// the device, and the configured logic is acyclic. Dangling sources read
// unconfigured fabric (garbage after a neighbor unloads); configuration-
// level loops would hang evaluation at run time. A device that breaks a
// rule yields one error naming the first it breaks.
func passFabricConfig(t *Target, r *Reporter) {
	if t.Device == nil {
		return
	}
	if err := t.Device.Check(); err != nil {
		name := t.Name
		if name == "" {
			name = "device"
		}
		r.Errorf(name, "%v", err)
	}
}
