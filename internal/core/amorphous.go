package core

import (
	"repro/internal/hostos"
	"repro/internal/sim"
)

// AmorphousManager implements hostos.FPGA with flexible-boundary
// regions in the style of Nguyen & Hoe's amorphous DPR, replacing §4's
// disjoint split/merge partitions: every circuit gets an exact-fit
// column span, boundaries slide instead of partitions splitting, and
// on-demand GC merges adjacent holes by sliding the strips between them
// rather than packing the whole device. Exited tasks' strips stay
// resident as an adoption cache (the virtual-memory page cache applied
// to configurations), so a recurring circuit re-enters at zero
// configuration cost — at the price of post-exit fragmentation.
//
// It is the strip table under one policy: best-fit exact spans, LRU
// rotation of idle strips when nothing else fits, and caching — an exited
// task's strip stays configured and unowned, and cached strips are the
// first thing reclaimed under space or pin pressure. Three choices are its
// own: a task switching algorithms demotes its old strip to the cache
// instead of reusing it in place, a cached strip with the requested
// circuit is adopted before any space is searched (sequential circuits pay
// a state reset), and holes merge on demand — when no single free span
// fits but the total free space would — by sliding the narrowest block
// between two of them.
type AmorphousManager struct {
	stripTable
	// slideFn is slideFor, bound once for the manager's lifetime: a
	// method value is an allocation.
	slideFn func(need int) sim.Time
}

var _ hostos.FPGA = (*AmorphousManager)(nil)

// NewAmorphousManager builds the manager over an empty sliding region
// map covering the whole device, renewing used, the board's last
// amorphous manager, in place (nil: a new one), its column map included.
func NewAmorphousManager(k *sim.Kernel, e *Engine, used *AmorphousManager) *AmorphousManager {
	am := used
	if am == nil {
		am = &AmorphousManager{}
	}
	rm := NewRegionMap(e.Opt.Geometry.Cols, am.rm)
	*am = AmorphousManager{
		stripTable: newStripTable(NewTaskKernel(k, e, "amorphous", &am.TaskKernel), rm, &am.stripTable),
		slideFn:    am.slideFn,
	}
	if am.slideFn == nil {
		am.slideFn = am.slideFor
	}
	am.fit, am.rotate, am.cache = BestFit, true, true
	am.reclaim = am.slideFn
	return am
}

// cacheFor returns the most-recently-used cached strip holding circuit,
// or nil.
func (am *AmorphousManager) cacheFor(circuit string) *strip {
	var best *strip
	for _, s := range am.rm.spans {
		if s.Free() {
			continue
		}
		p := s.Owner.(*strip)
		if p.owner != nil || p.circuit != circuit {
			continue
		}
		if best == nil || p.lastUse > best.lastUse {
			best = p
		}
	}
	return best
}

// slideFor merges adjacent free holes by sliding the occupied strips
// between them leftward — the amorphous answer to §4's stop-the-world
// compaction: boundaries move just enough to open a hole of width need,
// and every move is charged through the ledger's Relocate. Each round
// erases one hole, so the loop terminates — on a region map that
// coalesces the free spans a move leaves; a round that erases none
// panics rather than spin.
func (am *AmorphousManager) slideFor(need int) sim.Time {
	led := am.E.Ledger()
	var cost sim.Time
	led.NoteGC()
	for holes := -1; ; {
		gaps := am.rm.FreeList()
		for _, g := range gaps {
			if g.W >= need {
				return cost
			}
		}
		if len(gaps) < 2 {
			return cost
		}
		if holes >= 0 && len(gaps) >= holes {
			panic("core: a slide erased no hole: the region map did not coalesce")
		}
		holes = len(gaps)
		// Merge the pair of adjacent holes with the narrowest occupied
		// block between them: fewest columns relocated per hole erased.
		best, bestW := -1, 0
		for i := 0; i+1 < len(gaps); i++ {
			between := gaps[i+1].X - (gaps[i].X + gaps[i].W)
			if best < 0 || between < bestW {
				best, bestW = i, between
			}
		}
		g := gaps[best]
		for _, s := range am.rm.SpansIn(g.X+g.W, gaps[best+1].X) {
			cost += led.Relocate(s.X, s.X-g.W)
			am.rm.Move(s, s.X-g.W)
		}
	}
}

// Acquire implements hostos.FPGA.
func (am *AmorphousManager) Acquire(t *hostos.Task) (sim.Time, bool) {
	c := am.CircuitOf(t)
	var cost sim.Time
	if p := am.byTask[t.ID]; p != nil {
		if p.circuit == c.Name {
			p.lastUse = am.K.Now()
			return 0, true // loaded and state in place: zero-cost reuse
		}
		// Switching algorithms: save the outgoing sequential state, then
		// let the old strip go (into the cache — the task may switch
		// back). The new circuit allocates fresh below; exact-fit spans
		// never reuse a differently-sized hole in place.
		cost += am.saveOutgoing(p)
		am.giveUp(p)
	}

	// A cached strip with this circuit is adopted in place: no download,
	// no pin allocation — the whole point of keeping it resident.
	if p := am.cacheFor(c.Name); p != nil {
		p.owner, p.lastUse = t, am.K.Now()
		am.byTask[t.ID] = p
		led := am.E.Ledger()
		led.Adopt(p.span.X, t.Name)
		// A sequential adoptee with no state of its own finds the previous
		// user's flip-flops: they are reset.
		restoreCost, restored := am.saved.restore(led, t, c, am.region(p.span))
		if !restored && c.Sequential {
			restoreCost = led.Reset(t.Name, c, am.region(p.span))
		}
		return cost + restoreCost, true
	}

	placeCost, ready := am.place(t, c)
	if !ready {
		return 0, false
	}
	return cost + placeCost, true
}
