package core

import (
	"fmt"
	"slices"

	"repro/internal/compile"
	"repro/internal/flat"
	"repro/internal/hostos"
	"repro/internal/rng"
	"repro/internal/sim"
)

// ReplacePolicy selects the page-replacement discipline (§2 pagination).
type ReplacePolicy int

// Replacement policies.
const (
	LRU ReplacePolicy = iota
	PageFIFO
	Clock
	Random
)

func (p ReplacePolicy) String() string {
	switch p {
	case LRU:
		return "lru"
	case PageFIFO:
		return "fifo"
	case Clock:
		return "clock"
	case Random:
		return "random"
	}
	return fmt.Sprintf("replace(%d)", int(p))
}

// PagedConfig parameterizes the demand-paged loader.
type PagedConfig struct {
	// PageCells is the page size in CLBs (the fixed-size portion of §2).
	PageCells int
	// Frames is the number of page frames the device provides; 0 derives
	// it from the device capacity.
	Frames int
	Policy ReplacePolicy
	Seed   uint64
}

// pageID identifies one page of one circuit's configuration.
type pageID struct {
	circuit string
	index   int
}

// frame is one resident page slot.
type frame struct {
	page     pageID
	used     bool
	loadedAt int64 // FIFO sequence
	lastUse  int64 // LRU clock
	ref      bool  // Clock reference bit
	pin      int64 // == PagedLoader.pinGen: pinned by the faultIn in progress
}

// PagedLoader implements hostos.FPGA with §2's pagination: every
// configuration is divided into fixed-size pages, and an operation touches
// only the pages its request references. Missing pages fault in with a
// partial reconfiguration each; replacement follows the configured policy.
// Resident pages stay resident across preemption (TaskKernel.Preempt).
//
// Page frames are a residency/timing view of the configuration RAM: the
// loader charges exact download time per page (through the residency
// ledger, like every other download) and tracks frame contents. It does
// not maintain a functional image on the device — a page placed at an
// arbitrary frame origin would break relative routing, the constraint the
// paper itself raises for relocated configurations; functional correctness
// of page-wise downloads is covered by the bitstream tests.
type PagedLoader struct {
	TaskKernel
	Cfg PagedConfig

	frames []frame
	where  map[pageID]int // resident page -> frame index
	seq    int64
	hand   int // Clock hand
	src    rng.Source
	// need and pinGen are faultIn's scratch: the request's resolved page
	// set, and the stamp that marks a frame pinned for the current call
	// (bumping it unpins every frame at once). An Engine, and so its
	// loader, is single-goroutine by contract.
	need   []pageID
	pinGen int64
	// users lists the live tasks registered per circuit, one entry a
	// task and circuit; when the last user exits, the circuit's resident
	// pages are released so long multi-task runs cannot strand frames
	// (see Remove).
	users []pageUser
}

// pageUser is one live task's registration of a circuit.
type pageUser struct {
	circuit string
	task    hostos.TaskID
}

var _ hostos.FPGA = (*PagedLoader)(nil)

// NewPagedLoader builds a demand-paged manager, renewing used, the
// board's last paged loader, in place (nil: a new one): its frame table,
// page map and scratch are emptied and its random stream reseeded.
func NewPagedLoader(k *sim.Kernel, e *Engine, cfg PagedConfig, used *PagedLoader) (*PagedLoader, error) {
	if cfg.PageCells <= 0 {
		return nil, fmt.Errorf("core: page size must be positive")
	}
	if cfg.Frames <= 0 {
		cfg.Frames = e.Opt.Geometry.NumCLBs() / cfg.PageCells
	}
	if cfg.Frames <= 0 {
		return nil, fmt.Errorf("core: device too small for any page frame")
	}
	pl := used
	if pl == nil {
		pl = &PagedLoader{}
	}
	*pl = PagedLoader{
		TaskKernel: NewTaskKernel(k, e, "paged", &pl.TaskKernel),
		Cfg:        cfg,
		frames:     flat.Zeroed(pl.frames, cfg.Frames),
		where:      emptiedMap(pl.where),
		src:        *rng.New(cfg.Seed ^ 0xfeed),
		need:       flat.Emptied(pl.need),
		users:      flat.Emptied(pl.users),
	}
	return pl, nil
}

// Register implements hostos.FPGA.
func (pl *PagedLoader) Register(t *hostos.Task, circuit string) error {
	if _, err := pl.E.Circuit(circuit); err != nil {
		return err
	}
	u := pageUser{circuit, t.ID}
	if !slices.Contains(pl.users, u) {
		pl.users = append(pl.users, u)
	}
	return nil
}

// pageCount returns how many pages c's configuration divides into: page
// k is the cells BS.Cells[k·PageCells:], at most PageCells of them (the
// last page may be smaller).
func (pl *PagedLoader) pageCount(c *compile.Circuit) int {
	return (len(c.BS.Cells) + pl.Cfg.PageCells - 1) / pl.Cfg.PageCells
}

// pageCells returns how many cells page k of c holds.
func (pl *PagedLoader) pageCells(c *compile.Circuit, k int) int {
	return min(pl.Cfg.PageCells, len(c.BS.Cells)-k*pl.Cfg.PageCells)
}

// neededPages resolves the request's page working set into the loader's
// scratch slice, valid until the next call.
func (pl *PagedLoader) neededPages(t *hostos.Task) []pageID {
	req := t.CurrentRequest()
	n := pl.pageCount(pl.CircuitOf(t))
	ids := pl.need[:0]
	if len(req.Pages) == 0 {
		for i := 0; i < n; i++ {
			ids = append(ids, pageID{req.Circuit, i})
		}
	}
	for _, p := range req.Pages {
		if p < 0 || p >= n {
			panic(fmt.Sprintf("core: task %s references page %d of %s which has %d pages",
				t.Name, p, req.Circuit, n))
		}
		ids = append(ids, pageID{req.Circuit, p})
	}
	pl.need = ids
	return ids
}

// touch records a page hit for recency policies.
func (pl *PagedLoader) touch(fi int) {
	pl.seq++
	pl.frames[fi].lastUse = pl.seq
	pl.frames[fi].ref = true
}

// pinned reports whether frame i holds a page of the working set being
// faulted in.
func (pl *PagedLoader) pinned(i int) bool { return pl.frames[i].pin == pl.pinGen }

// victim picks a frame to evict, never a pinned one.
func (pl *PagedLoader) victim() int {
	switch pl.Cfg.Policy {
	case LRU, PageFIFO:
		best := -1
		for i := range pl.frames {
			if pl.pinned(i) {
				continue
			}
			if !pl.frames[i].used {
				return i
			}
			key := pl.frames[i].lastUse
			if pl.Cfg.Policy == PageFIFO {
				key = pl.frames[i].loadedAt
			}
			if best == -1 || key < keyOf(&pl.frames[best], pl.Cfg.Policy) {
				best = i
			}
		}
		if best == -1 {
			panic("core: all page frames pinned; working set exceeds frame count")
		}
		return best
	case Clock:
		for spins := 0; spins < 2*len(pl.frames)+1; spins++ {
			i := pl.hand
			pl.hand = (pl.hand + 1) % len(pl.frames)
			if pl.pinned(i) {
				continue
			}
			if !pl.frames[i].used {
				return i
			}
			if pl.frames[i].ref {
				pl.frames[i].ref = false
				continue
			}
			return i
		}
		panic("core: clock found no victim; working set exceeds frame count")
	case Random:
		for tries := 0; tries < 10*len(pl.frames); tries++ {
			i := pl.src.Intn(len(pl.frames))
			if !pl.pinned(i) {
				return i
			}
		}
		// Rejection sampling can run out of tries when most frames are
		// pinned; draw once among the unpinned frames directly.
		var free []int
		for i := range pl.frames {
			if !pl.pinned(i) {
				free = append(free, i)
			}
		}
		if len(free) == 0 {
			panic("core: all page frames pinned; working set exceeds frame count")
		}
		return free[pl.src.Intn(len(free))]
	}
	panic("core: unknown replacement policy")
}

func keyOf(f *frame, p ReplacePolicy) int64 {
	if p == PageFIFO {
		return f.loadedAt
	}
	return f.lastUse
}

// faultIn ensures the given pages are resident, returning the download
// cost (one partial reconfiguration per fault, charged by the ledger).
func (pl *PagedLoader) faultIn(t *hostos.Task, ids []pageID) sim.Time {
	if len(ids) > len(pl.frames) {
		panic(fmt.Sprintf("core: task %s needs %d pages at once with only %d frames",
			t.Name, len(ids), len(pl.frames)))
	}
	// Pin the whole working set so faults never evict pages needed by the
	// same operation.
	pl.pinGen++
	for _, id := range ids {
		if fi, ok := pl.where[id]; ok {
			pl.frames[fi].pin = pl.pinGen
		}
	}
	led := pl.E.Ledger()
	c := pl.CircuitOf(t) // every page of ids is of the request's circuit
	var cost sim.Time
	for _, id := range ids {
		if fi, ok := pl.where[id]; ok {
			pl.touch(fi)
			continue
		}
		fi := pl.victim()
		if pl.frames[fi].used {
			old := pl.frames[fi].page
			delete(pl.where, old)
			led.EvictPage(t.Name, old.circuit, old.index)
		}
		pl.seq++
		pl.frames[fi] = frame{page: id, used: true, loadedAt: pl.seq, lastUse: pl.seq, ref: true, pin: pl.pinGen}
		pl.where[id] = fi
		cost += led.LoadPage(t.Name, id.circuit, id.index, pl.pageCells(c, id.index))
	}
	return cost
}

// Acquire implements hostos.FPGA: pagination never blocks; pressure shows
// up as fault time.
func (pl *PagedLoader) Acquire(t *hostos.Task) (sim.Time, bool) {
	return pl.faultIn(t, pl.neededPages(t)), true
}

// ExecTime implements hostos.FPGA: page frames bind no pins, so nothing
// is multiplexed.
func (pl *PagedLoader) ExecTime(t *hostos.Task) sim.Time { return pl.ExecAt(t, -1) }

// Resume implements hostos.FPGA: fault back in whatever was evicted while
// the task was away.
func (pl *PagedLoader) Resume(t *hostos.Task) sim.Time {
	return pl.faultIn(t, pl.neededPages(t))
}

// Complete implements hostos.FPGA. Pages stay resident between a task's
// operations on purpose: they are a cache for the task's next request
// (and for other tasks sharing the circuit). Reclamation happens at task
// exit, in Remove.
func (pl *PagedLoader) Complete(t *hostos.Task) {}

// Remove implements hostos.FPGA: the exiting task drops its reference on
// every circuit it registered, and circuits left with no live user have
// their resident pages released — their frames become free (preferred by
// every replacement policy) instead of lingering as phantom residency for
// the rest of a long multi-task run.
func (pl *PagedLoader) Remove(t *hostos.Task) {
	led := pl.E.Ledger()
	// Frames are scanned in index order so the trace stays deterministic.
	for fi := range pl.frames {
		f := &pl.frames[fi]
		if !f.used {
			continue
		}
		if !pl.soleUser(f.page.circuit, t.ID) {
			continue
		}
		delete(pl.where, f.page)
		led.ReleasePage(t.Name, f.page.circuit, f.page.index)
		*f = frame{}
	}
	pl.users = slices.DeleteFunc(pl.users, func(u pageUser) bool { return u.task == t.ID })
}

// soleUser reports whether task is the one live task registered for
// circuit.
func (pl *PagedLoader) soleUser(circuit string, task hostos.TaskID) bool {
	sole := false
	for _, u := range pl.users {
		if u.circuit == circuit {
			if u.task != task {
				return false
			}
			sole = true
		}
	}
	return sole
}
