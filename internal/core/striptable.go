package core

import (
	"fmt"

	"repro/internal/compile"
	"repro/internal/fabric"
	"repro/internal/flat"
	"repro/internal/hostos"
	"repro/internal/lint"
	"repro/internal/sim"
)

// strip is the payload on an occupied RegionMap span: the owning task,
// the loaded circuit, and rotation bookkeeping. A nil owner marks a
// cached strip, resident but unowned. Placement itself (origin and
// width) lives on the span; pins and mux of the loaded circuit live in
// the ledger's residency table, keyed by the strip origin.
type strip struct {
	span    *Span
	owner   *hostos.Task
	circuit string
	lastUse sim.Time
	pinned  bool // owner has an in-flight preempted op; never evict
}

// stripTable is the mechanism under the managers that give each task its
// own full-height column strip (§4): which task holds which strip, the
// sequential state displaced with an evicted strip, and the search for
// space — find free, reclaim, rotate, relieve pin pressure, suspend. A
// task keeps its strip across preemption (the strip is pinned), so
// preemption costs nothing. Only the table touches byTask and saved.
//
// The manager on top supplies the policy: fit, whether idle strips may be
// rotated out, how free holes are merged (reclaim), and whether a strip
// its task gives up stays resident as a cache.
type stripTable struct {
	TaskKernel

	rm     *RegionMap
	byTask map[hostos.TaskID]*strip
	saved  savedState
	// strips is the array strip records are carved from (see flat.Carve),
	// and carved how many records the table carved since it was built.
	strips []strip
	carved int

	fit    FitPolicy
	rotate bool
	cache  bool
	// reclaim relocates resident strips until a free hole of need columns
	// exists, returning what the moves cost; nil when boundaries are fixed
	// or garbage collection is off.
	reclaim func(need int) sim.Time
}

// newStripTable returns an empty table over tk and the column map rm,
// renewing used, the table of a manager being renewed (a zero one for a
// new manager): its maps are emptied and its strip array rewound. rm is
// the map renewed from used's, or a new one.
func newStripTable(tk TaskKernel, rm *RegionMap, used *stripTable) stripTable {
	return stripTable{
		TaskKernel: tk,
		rm:         rm,
		byTask:     emptiedMap(used.byTask),
		saved:      emptiedMap(used.saved),
		strips:     flat.Rewind(used.strips, used.carved),
	}
}

func (st *stripTable) region(s *Span) fabric.Region {
	return fabric.Region{X: s.X, Y: 0, W: s.W, H: st.E.Opt.Geometry.Rows}
}

// Regions returns a snapshot of the column map, sorted by origin, for
// inspection, tests and the static verifier. Cached strips report their
// circuit with an empty owner.
func (st *stripTable) Regions() []lint.RegionView {
	out := make([]lint.RegionView, 0, len(st.rm.spans))
	for _, s := range st.rm.spans {
		v := lint.RegionView{X: s.X, W: s.W, Free: s.Free()}
		if !s.Free() {
			p := s.Owner.(*strip)
			v.Circuit = p.circuit
			if p.owner != nil {
				v.Owner = p.owner.Name
			}
		}
		out = append(out, v)
	}
	return out
}

// Register implements hostos.FPGA: a circuit wider than the widest span
// the map could ever give it can never load. For a sliding map that is
// the device width.
func (st *stripTable) Register(t *hostos.Task, circuit string) error {
	c, err := st.E.Circuit(circuit)
	if err != nil {
		return err
	}
	if maxW := st.rm.MaxSlotWidth(); c.BS.W > maxW {
		return fmt.Errorf("core: circuit %s needs %d columns, widest strip is %d", circuit, c.BS.W, maxW)
	}
	return nil
}

// Frag returns the manager's live fragmentation statistics (a fixed
// table counts each free slot separately; slots never merge).
func (st *stripTable) Frag() FragStats { return st.rm.Frag() }

// LintTarget exports the column map and the device under it as a
// static-verifier target under the kernel's name, so callers can audit the
// §4 invariants (disjoint strips, no leaked columns, merged free space) at
// any point of a run:
//
//	diags := lint.RunTarget(pm.LintTarget(), lint.Options{})
func (st *stripTable) LintTarget() *lint.Target {
	return &lint.Target{
		Name:       st.name,
		Regions:    st.Regions(),
		Cols:       st.rm.Cols(),
		FixedSlots: !st.rm.Movable(),
		Device:     st.E.Dev,
	}
}

// LintTargets implements LintTargeter: one device, one target.
func (st *stripTable) LintTargets() []*lint.Target { return []*lint.Target{st.LintTarget()} }

// holds reports whether t has anything on this device: a strip, displaced
// state, or a place in the suspension queue.
func (st *stripTable) holds(t *hostos.Task) bool {
	return st.byTask[t.ID] != nil || st.Waiting(t) || st.saved.has(t.ID)
}

// saveOutgoing saves the state of the circuit in strip p before its owner
// switches to another algorithm, if it has any.
func (st *stripTable) saveOutgoing(p *strip) sim.Time {
	if old, err := st.E.Circuit(p.circuit); err == nil && old.Sequential {
		return st.saved.save(st.E.Ledger(), p.owner, old, st.region(p.span))
	}
	return 0
}

// drop releases the resident strip in span s. displaced marks an
// involuntary eviction (rotation) as opposed to a voluntary release
// (task exit, hand-back, cache reclaim).
func (st *stripTable) drop(s *Span, displaced bool) {
	if displaced {
		st.E.Ledger().Evict(s.X)
	} else {
		st.E.Ledger().Release(s.X)
	}
	if p := s.Owner.(*strip); p.owner != nil {
		delete(st.byTask, p.owner.ID)
	}
	st.rm.Release(s)
}

// giveUp takes strip p from its owner: demoted to an unowned cached
// resident under the cache policy, released otherwise.
func (st *stripTable) giveUp(p *strip) {
	if !st.cache {
		st.drop(p.span, false)
		return
	}
	delete(st.byTask, p.owner.ID)
	p.owner, p.pinned, p.lastUse = nil, false, st.K.Now()
}

// lru returns the least-recently-used resident strip among the cached
// ones (owned == false) or among the unpinned owned ones not t's.
func (st *stripTable) lru(owned bool, t *hostos.Task) *strip {
	var victim *strip
	for _, s := range st.rm.spans {
		if s.Free() {
			continue
		}
		p := s.Owner.(*strip)
		if (p.owner != nil) != owned || p.pinned || (owned && p.owner == t) {
			continue
		}
		if victim == nil || p.lastUse < victim.lastUse {
			victim = p
		}
	}
	return victim
}

// dropOneCache reclaims the least-recently-used cached strip, returning
// false when no cache remains.
func (st *stripTable) dropOneCache() bool {
	victim := st.lru(false, nil)
	if victim == nil {
		return false
	}
	st.drop(victim.span, false)
	return true
}

// evictLRU displaces the least-recently-used unpinned owned strip whose
// owner is not t, preserving the displaced task's sequential state in OS
// tables. It returns the state-save cost, or ok=false if nothing is
// evictable.
func (st *stripTable) evictLRU(t *hostos.Task) (cost sim.Time, ok bool) {
	victim := st.lru(true, t)
	if victim == nil {
		return 0, false
	}
	c, err := st.E.Circuit(victim.circuit)
	if err != nil {
		panic(err)
	}
	if c.Sequential {
		cost += st.saved.save(st.E.Ledger(), victim.owner, c, st.region(victim.span))
	}
	st.drop(victim.span, true)
	return cost, true
}

// place finds a strip for circuit c of task t and downloads it, walking
// one ladder: a free span; cached strips reclaimed (LRU first); holes
// merged by the manager's reclaim; idle strips rotated out, reclaiming
// between evictions; then pin pressure. Pins are a shared physical
// resource too — cached strips hold theirs, and caching must never starve
// a fresh download below a full (mux-free) pin binding, so caches go
// whenever free pins fall short of the circuit's port count, and rotation
// handles genuine exhaustion like area shortage. With no span or no pin
// left, t suspends.
func (st *stripTable) place(t *hostos.Task, c *compile.Circuit) (cost sim.Time, ready bool) {
	need := c.BS.W
	find := func() *Span { return st.rm.FindFree(need, st.fit) }
	// merge reclaims when that can help: the free columns would fit the
	// request if they were one hole.
	merge := func() bool {
		if total, _ := st.rm.FreeCols(); st.reclaim == nil || total < need {
			return false
		}
		cost += st.reclaim(need)
		return true
	}

	s := find()
	for s == nil && st.dropOneCache() {
		s = find()
	}
	if s == nil && merge() {
		s = find()
	}
	for s == nil && st.rotate {
		evictCost, ok := st.evictLRU(t)
		if !ok {
			break
		}
		cost += evictCost
		if s = find(); s == nil && merge() {
			s = find()
			break
		}
	}
	if s != nil {
		changed := false
		for st.E.FreePinCount() < c.BS.NumIn+c.BS.NumOut && st.dropOneCache() {
			changed = true
		}
		if st.E.FreePinCount() == 0 && st.rotate {
			if evictCost, ok := st.evictLRU(t); ok {
				cost += evictCost
				changed = true
			}
		}
		if changed {
			s = find() // reclaim reshaped the free list
		}
	}
	if s == nil || st.E.FreePinCount() == 0 {
		st.Block(t)
		return 0, false
	}
	p := &flat.Carve(&st.strips, 1, recordChunk)[0]
	st.carved++
	*p = strip{owner: t, circuit: c.Name, lastUse: st.K.Now()}
	p.span = st.rm.Alloc(s, need, p)
	st.byTask[t.ID] = p
	_, loadCost := st.E.Ledger().Load(t.Name, c, p.span.X, false)
	restoreCost, _ := st.saved.restore(st.E.Ledger(), t, c, st.region(p.span)) // none saved: FFs at init values
	return cost + loadCost + restoreCost, true
}

// touch marks t's strip used now, pinning or unpinning it.
func (st *stripTable) touch(t *hostos.Task, pinned bool) {
	if p := st.byTask[t.ID]; p != nil {
		p.pinned = pinned
		p.lastUse = st.K.Now()
	}
}

// ExecTime implements hostos.FPGA.
func (st *stripTable) ExecTime(t *hostos.Task) sim.Time {
	x := -1 // no strip: no multiplexing
	if p := st.byTask[t.ID]; p != nil {
		x = p.span.X
	}
	return st.ExecAt(t, x)
}

// Preempt implements hostos.FPGA: the state stays in the strip, so only
// the in-flight vector/cycle granularity is lost.
func (st *stripTable) Preempt(t *hostos.Task, done, total sim.Time) (sim.Time, sim.Time) {
	st.touch(t, true)
	return st.TaskKernel.Preempt(t, done, total)
}

// Resume implements hostos.FPGA: the pinned strip is exactly as the task
// left it.
func (st *stripTable) Resume(t *hostos.Task) sim.Time {
	st.touch(t, true)
	return 0
}

// Complete implements hostos.FPGA.
func (st *stripTable) Complete(t *hostos.Task) { st.touch(t, false) }

// Remove implements hostos.FPGA: the exiting task gives up its strip, its
// saved state is purged, and suspended tasks get a chance to allocate.
func (st *stripTable) Remove(t *hostos.Task) {
	if p := st.byTask[t.ID]; p != nil {
		st.giveUp(p)
	}
	st.saved.forget(t.ID)
	st.Wake()
}
