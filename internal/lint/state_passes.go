package lint

import (
	"fmt"
	"runtime"
	"sort"
	"sync"

	"repro/internal/fabric"
	"repro/internal/flat"
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
	views := append([]RegionView(nil), t.Regions...)
	sort.Slice(views, func(i, j int) bool { return views[i].X < views[j].X })
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

// fabricTables is one fabric-config audit's working set: the dense
// per-CLB tables the pass fills and the loop check's sort, kept from
// audit to audit.
type fabricTables struct {
	state  []uint8
	node   []int32
	order  flat.Order[int]
	sorted []int
}

// fabricFree holds the working sets no audit is using, the one given
// back last on top, at most GOMAXPROCS of them: a daemon audits a board
// after every job, and each audit after the first on a goroutine finds
// its tables already grown.
var fabricFree struct {
	mu   sync.Mutex
	sets []*fabricTables
}

func takeFabricTables() *fabricTables {
	fabricFree.mu.Lock()
	defer fabricFree.mu.Unlock()
	n := len(fabricFree.sets)
	if n == 0 {
		return new(fabricTables)
	}
	ft := fabricFree.sets[n-1]
	fabricFree.sets = fabricFree.sets[:n-1]
	return ft
}

func giveFabricTables(ft *fabricTables) {
	fabricFree.mu.Lock()
	defer fabricFree.mu.Unlock()
	if len(fabricFree.sets) < runtime.GOMAXPROCS(0) {
		fabricFree.sets = append(fabricFree.sets, ft)
	}
}

// passFabricConfig cross-checks a configured device the way the
// functional evaluator would consume it: every used CLB input and every
// output-pin driver must reference a used CLB, a configured input pin
// or a constant — and the configured logic must be acyclic. Dangling
// sources read unconfigured fabric (garbage after a neighbor unloads);
// configuration-level loops would hang evaluation at run time.
func passFabricConfig(t *Target, r *Reporter) {
	d := t.Device
	if d == nil {
		return
	}
	g := d.Geometry()
	name := t.Name
	if name == "" {
		name = "device"
	}
	// Dense per-CLB tables in the device's own x-major order. A clean
	// device — every device the daemon audits after a job — must cost a
	// few slices here and no formatting at all: positions are rendered
	// only for a source about to be reported.
	at := func(x, y int) int { return x*g.Rows + y }
	inDevice := func(s fabric.Source) bool {
		return s.X >= 0 && int(s.X) < g.Cols && s.Y >= 0 && int(s.Y) < g.Rows
	}
	// What each CLB's output is, read once so that no later walk has to
	// fetch a neighbour's configuration to classify an edge, and each used
	// CLB's number in the loop check's sort: the used CLBs only, in scan
	// order, so that a board with a few circuits sorts a few CLBs.
	const (
		blank      = iota
		registered // the output is the FF, not the LUT: it breaks cycles
		combinational
	)
	ft := takeFabricTables()
	defer giveFabricTables(ft)
	ft.state = flat.Zeroed(ft.state, g.NumCLBs())
	ft.node = flat.Zeroed(ft.node, g.NumCLBs())
	state, node := ft.state, ft.node
	nUsed := 0
	d.EachUsedCLB(func(x, y int, cfg *fabric.CLBConfig) {
		state[at(x, y)] = combinational
		if cfg.UseFF {
			state[at(x, y)] = registered
		}
		node[at(x, y)] = int32(nUsed)
		nUsed++
	})
	// sourceFault returns what is wrong with s, or "" for a sound source.
	sourceFault := func(s fabric.Source) string {
		switch s.Kind {
		case fabric.SrcUnused, fabric.SrcConst0, fabric.SrcConst1:
		case fabric.SrcCLB:
			if !inDevice(s) {
				return fmt.Sprintf("reads CLB (%d,%d) outside device %v", s.X, s.Y, g)
			} else if state[at(int(s.X), int(s.Y))] == blank {
				return fmt.Sprintf("reads unconfigured CLB (%d,%d)", s.X, s.Y)
			}
		case fabric.SrcPin:
			if s.Pin < 0 || int(s.Pin) >= g.NumPins() {
				return fmt.Sprintf("reads pin %d outside device %v", s.Pin, g)
			} else if d.Pin(int(s.Pin)).Mode != fabric.PinInput {
				return fmt.Sprintf("reads pin %d which is not configured as an input", s.Pin)
			}
		default:
			return fmt.Sprintf("unknown source kind %d", s.Kind)
		}
		return ""
	}
	// The loop check sorts the used CLBs over their combinational edges:
	// from each combinational CLB to every used CLB that reads it. The
	// walk that reports faulty sources counts them, a second places them.
	combEdge := func(s fabric.Source) bool {
		return s.Kind == fabric.SrcCLB && inDevice(s) && state[at(int(s.X), int(s.Y))] == combinational
	}
	nodeOf := func(s fabric.Source) int { return int(node[at(int(s.X), int(s.Y))]) }
	o := &ft.order
	o.Reset(nUsed)
	d.EachUsedCLB(func(x, y int, cfg *fabric.CLBConfig) {
		for k, s := range cfg.Inputs {
			if fault := sourceFault(s); fault != "" {
				r.Errorf(fmt.Sprintf("%s: CLB (%d,%d) input %d", name, x, y, k), "%s", fault)
			}
			if combEdge(s) {
				o.Count(nodeOf(s), int(node[at(x, y)]))
			}
		}
	})
	for p := 0; p < g.NumPins(); p++ {
		cfg := d.Pin(p)
		if cfg.Mode == fabric.PinOutput {
			if fault := sourceFault(cfg.Driver); fault != "" {
				r.Errorf(fmt.Sprintf("%s: output pin %d", name, p), "%s", fault)
			}
		}
	}
	o.Counted()
	d.EachUsedCLB(func(x, y int, cfg *fabric.CLBConfig) {
		for _, s := range cfg.Inputs {
			if combEdge(s) {
				o.Place(nodeOf(s), int(node[at(x, y)]))
			}
		}
	})
	ft.sorted = o.Sort(ft.sorted[:0])
	if ordered := len(ft.sorted); ordered != nUsed {
		r.Errorf(name+": logic", "configured fabric contains a combinational loop (%d of %d CLBs unordered)",
			nUsed-ordered, nUsed)
	}
}
