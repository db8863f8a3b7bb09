package core

import (
	"fmt"

	"repro/internal/bitstream"
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

	frames  []frame
	where   map[pageID]int // resident page -> frame index
	seq     int64
	hand    int // Clock hand
	src     *rng.Source
	pagesOf map[string][]bitstream.Page
	// need and pinGen are faultIn's scratch: the request's resolved page
	// set, and the stamp that marks a frame pinned for the current call
	// (bumping it unpins every frame at once). An Engine, and so its
	// loader, is single-goroutine by contract.
	need   []pageID
	pinGen int64
	// users counts the live tasks registered per circuit; when the last
	// user exits, the circuit's resident pages are released so long
	// multi-task runs cannot strand frames (see Remove).
	users map[string]map[hostos.TaskID]bool
}

var _ hostos.FPGA = (*PagedLoader)(nil)

// NewPagedLoader builds a demand-paged manager.
func NewPagedLoader(k *sim.Kernel, e *Engine, cfg PagedConfig) (*PagedLoader, error) {
	if cfg.PageCells <= 0 {
		return nil, fmt.Errorf("core: page size must be positive")
	}
	if cfg.Frames <= 0 {
		cfg.Frames = e.Opt.Geometry.NumCLBs() / cfg.PageCells
	}
	if cfg.Frames <= 0 {
		return nil, fmt.Errorf("core: device too small for any page frame")
	}
	return &PagedLoader{
		TaskKernel: NewTaskKernel(k, e, "paged"),
		Cfg:        cfg,
		frames:     make([]frame, cfg.Frames),
		where:      map[pageID]int{},
		src:        rng.New(cfg.Seed ^ 0xfeed),
		pagesOf:    map[string][]bitstream.Page{},
		users:      map[string]map[hostos.TaskID]bool{},
	}, nil
}

// Register implements hostos.FPGA.
func (pl *PagedLoader) Register(t *hostos.Task, circuit string) error {
	c, err := pl.E.Circuit(circuit)
	if err != nil {
		return err
	}
	if _, ok := pl.pagesOf[circuit]; !ok {
		pl.pagesOf[circuit] = c.BS.Pages(pl.Cfg.PageCells)
	}
	if pl.users[circuit] == nil {
		pl.users[circuit] = map[hostos.TaskID]bool{}
	}
	pl.users[circuit][t.ID] = true
	return nil
}

// neededPages resolves the request's page working set into the loader's
// scratch slice, valid until the next call.
func (pl *PagedLoader) neededPages(t *hostos.Task) []pageID {
	req := t.CurrentRequest()
	pages := pl.pagesOf[req.Circuit]
	ids := pl.need[:0]
	if len(req.Pages) == 0 {
		for i := range pages {
			ids = append(ids, pageID{req.Circuit, i})
		}
	}
	for _, p := range req.Pages {
		if p < 0 || p >= len(pages) {
			panic(fmt.Sprintf("core: task %s references page %d of %s which has %d pages",
				t.Name, p, req.Circuit, len(pages)))
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
		pages := pl.pagesOf[id.circuit]
		cost += led.LoadPage(t.Name, id.circuit, id.index, len(pages[id.index].Cells))
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
		us := pl.users[f.page.circuit]
		if us == nil || !us[t.ID] || len(us) > 1 {
			continue
		}
		delete(pl.where, f.page)
		led.ReleasePage(t.Name, f.page.circuit, f.page.index)
		*f = frame{}
	}
	for circuit, us := range pl.users {
		if us[t.ID] {
			delete(us, t.ID)
			if len(us) == 0 {
				delete(pl.users, circuit)
			}
		}
	}
}
