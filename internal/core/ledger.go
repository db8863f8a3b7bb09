package core

import (
	"fmt"
	"slices"
	"strings"
	"sync"

	"repro/internal/bitstream"
	"repro/internal/compile"
	"repro/internal/fabric"
	"repro/internal/fault"
	"repro/internal/flat"
	"repro/internal/sim"
)

// LedgerOp enumerates the residency-ledger transaction kinds. The first
// seven are the paper's device mechanics — configuration download (§2/§3),
// state readback and restore (§3's observability/controllability), restart
// after rollback (§3), and garbage-collection relocation (§4). Block and
// GC are annotations: policy decisions that change no device state but
// belong on the same timeline.
type LedgerOp int

// Ledger operation kinds.
const (
	OpLoad     LedgerOp = iota // configuration download (strip or page)
	OpEvict                    // residency displaced or released
	OpReadback                 // flip-flop state saved to OS tables
	OpRestore                  // flip-flop state written back
	OpReset                    // flip-flops forced to configured init values
	OpRollback                 // in-flight operation restarted from scratch
	OpRelocate                 // circuit moved by garbage collection
	OpBlock                    // task suspended waiting for device space
	OpGC                       // compaction run started
	OpFault                    // injected fault detected (download CRC, readback CRC, verify)
	OpRetry                    // recovery retry scheduled after an injected fault
)

func (k LedgerOp) String() string {
	switch k {
	case OpLoad:
		return "load"
	case OpEvict:
		return "evict"
	case OpReadback:
		return "readback"
	case OpRestore:
		return "restore"
	case OpReset:
		return "reset"
	case OpRollback:
		return "rollback"
	case OpRelocate:
		return "relocate"
	case OpBlock:
		return "block"
	case OpGC:
		return "gc"
	case OpFault:
		return "fault"
	case OpRetry:
		return "retry"
	}
	return fmt.Sprintf("op(%d)", int(k))
}

// DeviceEvent is one structured device-side event: what the ledger did,
// on whose behalf, to which circuit and region, and what it cost. It is
// the device-side counterpart of hostos.Event.
type DeviceEvent struct {
	At      sim.Time
	Op      LedgerOp
	Task    string // owning task ("" for system operations)
	Circuit string
	Region  fabric.Region
	// Page is the configuration-page index for paged loads/evictions,
	// -1 for whole-strip operations.
	Page int
	Cost sim.Time
	// Voluntary marks an OpEvict that released residency at the owner's
	// exit (or hand-back) rather than displacing it for someone else;
	// only involuntary evictions count in Metrics.Evictions.
	Voluntary bool
	// Note annotates fault and retry events (which kind fired, which bit
	// flipped, which attempt follows); empty on ordinary operations.
	Note string
}

// Detail renders everything but the operation kind: circuit, placement,
// cost, and the voluntary marker.
func (e DeviceEvent) Detail() string {
	var b strings.Builder
	if e.Circuit != "" {
		fmt.Fprintf(&b, "%s", e.Circuit)
	}
	if e.Page >= 0 {
		fmt.Fprintf(&b, " page %d", e.Page)
	} else if e.Region.W > 0 {
		fmt.Fprintf(&b, " @x=%d w=%d", e.Region.X, e.Region.W)
	}
	if e.Cost > 0 {
		fmt.Fprintf(&b, " cost=%v", e.Cost)
	}
	if e.Voluntary {
		b.WriteString(" (released)")
	}
	if e.Note != "" {
		fmt.Fprintf(&b, " [%s]", e.Note)
	}
	return strings.TrimSpace(b.String())
}

// String renders the event compactly for traces and debugging.
func (e DeviceEvent) String() string {
	if d := e.Detail(); d != "" {
		return e.Op.String() + " " + d
	}
	return e.Op.String()
}

// DeviceLog records ledger events for post-mortem inspection and merged
// scheduler+device timelines. Attach with Ledger.AttachLog; a nil log
// costs nothing.
type DeviceLog struct {
	events []DeviceEvent
}

// NewDeviceLog returns an empty log.
func NewDeviceLog() *DeviceLog { return &DeviceLog{} }

// Emit appends an event.
func (l *DeviceLog) Emit(e DeviceEvent) { l.events = append(l.events, e) }

// Events returns the recorded events in emission order.
func (l *DeviceLog) Events() []DeviceEvent { return l.events }

// String renders the raw event list.
func (l *DeviceLog) String() string {
	var b strings.Builder
	for _, e := range l.events {
		fmt.Fprintf(&b, "%12v  %-10s %s\n", e.At, e.Task, e)
	}
	return b.String()
}

// Resident is one live entry of the ledger's residency table: a
// full-height circuit strip the ledger downloaded and has not yet
// evicted, together with the physical pins it holds.
type Resident struct {
	Circuit string
	C       *compile.Circuit
	Owner   string // task that requested the download ("" for system)
	Region  fabric.Region
	Pins    []int
	Mux     int
}

// recordChunk is how many records the ledger and the strip table carve
// from one array: a job downloads a handful of strips to a score.
const recordChunk = 8

// Ledger is the transaction layer under every VFPGA manager: the one
// place that performs fabric writes, charges time from the timing model,
// bumps Metrics, and emits device-side trace events. Managers stay pure
// policy — they decide *what* to load, evict or save; the ledger decides
// (and accounts for) *how*.
//
// The ledger also keeps the authoritative residency table (which circuit
// strip sits at which column, holding which pins).
//
// A Ledger (like the Engine it belongs to) is single-goroutine by
// design: the simulation kernel is not a concurrent object, and neither
// are the device, metrics, or residency table under it. Concurrent
// layers (the vfpgad board pool) must confine each engine and its
// managers to one goroutine. Every mutating ledger operation carries a
// cheap mutex-backed assertion that panics on concurrent entry, so
// misuse fails loudly instead of racing.
type Ledger struct {
	e   *Engine
	k   *sim.Kernel
	log *DeviceLog
	inj *fault.Injector // nil = no injection (the common case)
	// residents is the residency table: sorted by strip origin, pairwise
	// disjoint, inside the device. Only find, insert and remove index it.
	residents []*Resident
	// The arrays Resident records and their pins are carved from (see
	// flat.Carve), and how many of each the job carved over all its arrays: one
	// download allocates neither, and a renewed engine carves its job's
	// from one array of each, the last job's when that holds as many.
	resBuf          []Resident
	pinBuf          []int
	records, pinned int
	// initBuf is Reset's scratch: the init values it writes back.
	initBuf []bool

	// guard backs the single-goroutine assertion: TryLock fails only if
	// another operation is mid-flight, which under the ownership contract
	// can only mean a second goroutine.
	guard sync.Mutex
}

// enter asserts the single-goroutine ownership contract on entry to a
// mutating operation and returns the matching exit function. An
// uncontended TryLock is one atomic operation, cheap enough to keep on
// in every build.
func (l *Ledger) enter() func() {
	if !l.guard.TryLock() {
		panic("core: concurrent Ledger use — an Engine and its managers must be confined to a single goroutine")
	}
	return l.guard.Unlock
}

// Bind attaches the simulation clock used to timestamp events. Manager
// constructors call it; the most recent binding wins, so an engine can be
// probed by several short-lived managers (tests do) as long as the ones
// actually running share a kernel.
func (l *Ledger) Bind(k *sim.Kernel) {
	defer l.enter()()
	if k != nil {
		l.k = k
	}
}

// AttachLog starts recording device events into log.
func (l *Ledger) AttachLog(log *DeviceLog) {
	defer l.enter()()
	l.log = log
}

// InjectFaults arms the ledger with a fault injector. A nil injector
// (the default) costs one pointer check per operation and changes no
// behaviour, which is what keeps every fault-free output byte-identical.
func (l *Ledger) InjectFaults(inj *fault.Injector) {
	defer l.enter()()
	l.inj = inj
}

// Injector returns the armed fault injector (nil when injection is off).
func (l *Ledger) Injector() *fault.Injector { return l.inj }

// nextFault asks the injector (if any) about the next attempt at point p.
func (l *Ledger) nextFault(p fault.Point) (fault.Kind, uint64) {
	if l.inj == nil {
		return fault.None, 0
	}
	return l.inj.Next(p)
}

// maxAttempts returns the per-operation attempt budget of the armed plan.
func (l *Ledger) maxAttempts() int {
	if l.inj == nil {
		return 1
	}
	plan := l.inj.Plan()
	return plan.MaxAttempts()
}

// noteFault accounts one injected fault: the wasted simulated time goes
// to Metrics.FaultTime (not the op's own time bucket, so fault-free
// accounting stays exact) and the detection shows up on the timeline.
func (l *Ledger) noteFault(owner, circuit string, region fabric.Region, page int, charge sim.Time, note string) {
	l.e.M.FaultsInjected++
	l.e.M.FaultTime += charge
	l.emitNote(OpFault, owner, circuit, region, page, charge, false, note)
}

// noteRetry accounts the backoff before retry attempt next (1-based
// retry ordinal) and returns the backoff charged.
func (l *Ledger) noteRetry(owner, circuit string, region fabric.Region, page, next int, kind fault.Kind) sim.Time {
	plan := l.inj.Plan()
	backoff := plan.RetryBackoff(next)
	l.e.M.FaultRetries++
	l.e.M.FaultTime += backoff
	l.emitNote(OpRetry, owner, circuit, region, page, backoff, false,
		fmt.Sprintf("%s attempt %d/%d", kind, next+1, plan.MaxAttempts()))
	return backoff
}

func (l *Ledger) now() sim.Time {
	if l.k == nil {
		return 0
	}
	return l.k.Now()
}

func (l *Ledger) emit(op LedgerOp, task, circuit string, region fabric.Region, page int, cost sim.Time, voluntary bool) {
	l.emitNote(op, task, circuit, region, page, cost, voluntary, "")
}

func (l *Ledger) emitNote(op LedgerOp, task, circuit string, region fabric.Region, page int, cost sim.Time, voluntary bool, note string) {
	if l.log == nil {
		return
	}
	l.log.Emit(DeviceEvent{
		At: l.now(), Op: op, Task: task, Circuit: circuit,
		Region: region, Page: page, Cost: cost, Voluntary: voluntary, Note: note,
	})
}

// find returns where a strip with origin column x sits in the residency
// table, or would be inserted, and whether one is there.
func (l *Ledger) find(x int) (int, bool) {
	return slices.BinarySearchFunc(l.residents, x, func(r *Resident, x int) int { return r.Region.X - x })
}

// insert enters r into the residency table. Resident strips are disjoint
// and inside the device by construction — a violation is a manager bug,
// and this is the only place that would notice two strips with different
// origins sharing a column.
func (l *Ledger) insert(r *Resident) {
	i, _ := l.find(r.Region.X)
	lo, hi := r.Region.X, r.Region.X+r.Region.W
	if cols := l.e.Opt.Geometry.Cols; lo < 0 || hi > cols {
		panic(fmt.Sprintf("core: residency [%d,%d) outside the device's %d columns", lo, hi, cols))
	}
	for _, n := range l.residents[max(i-1, 0):min(i+1, len(l.residents))] {
		if n.Region.X < hi && lo < n.Region.X+n.Region.W {
			panic(fmt.Sprintf("core: residency [%d,%d) overlaps %s at column %d", lo, hi, n.Circuit, n.Region.X))
		}
	}
	l.residents = slices.Insert(l.residents, i, r)
}

// remove takes r out of the residency table.
func (l *Ledger) remove(r *Resident) {
	i, _ := l.find(r.Region.X)
	l.residents = slices.Delete(l.residents, i, i+1)
}

// ResidentAt returns the residency entry whose strip starts at column x,
// or nil.
func (l *Ledger) ResidentAt(x int) *Resident {
	if i, ok := l.find(x); ok {
		return l.residents[i]
	}
	return nil
}

// Residents returns a copy of the residency table, sorted by origin
// column.
//
//vfpgavet:ignore testonly -- observation hook: the ledger, guard and fault-golden tests read the residency table
func (l *Ledger) Residents() []Resident {
	out := make([]Resident, len(l.residents))
	for i, r := range l.residents {
		out[i] = *r
	}
	return out
}

// TryLoad downloads circuit c as a full-height strip at column x for
// owner: it allocates pins, applies the bitstream, charges the download
// from the timing model (the full-device serial cost when wholeDevice is
// set and the fabric lacks partial reconfiguration, the strip's own cost
// otherwise), and records the residency. It returns the pin-multiplexing
// factor and the charged cost.
func (l *Ledger) TryLoad(owner string, c *compile.Circuit, x int, wholeDevice bool) (mux int, cost sim.Time, err error) {
	defer l.enter()()
	if r := l.ResidentAt(x); r != nil {
		return 0, 0, fmt.Errorf("core: column %d already holds %s; evict first", x, r.Circuit)
	}
	// A pin array holds the largest grant the pool can make: every pin.
	pins, mux, err := l.e.allocPins(c.BS.NumIn+c.BS.NumOut, &l.pinBuf, l.e.Opt.Geometry.NumPins())
	if err != nil {
		return 0, 0, err
	}
	l.pinned += len(pins)
	in, out := binding(c, pins)
	tm := l.e.Opt.Timing
	var base sim.Time
	if wholeDevice && !tm.PartialReconfig {
		base = tm.FullConfigTime(l.e.Opt.Geometry)
	} else {
		base = c.BS.ConfigCost(tm)
	}
	region := c.BS.Region(x, 0)
	extra, err := l.applyConfig("load", owner, c, x, in, out, region, base)
	if err != nil {
		l.e.FreePins(pins)
		return 0, 0, err
	}
	cost = base + extra
	l.e.M.Loads++
	l.e.M.ConfigTime += base
	if mux > 1 {
		l.e.M.MuxedOps++
	}
	r := &flat.Carve(&l.resBuf, 1, recordChunk)[0]
	l.records++
	*r = Resident{Circuit: c.Name, C: c, Owner: owner, Region: region, Pins: pins, Mux: mux}
	l.insert(r)
	l.emit(OpLoad, owner, c.Name, region, -1, base, false)
	l.e.noteUtil(l.now())
	return mux, cost, nil
}

// configFaultCharge maps a config-point fault to the simulated time it
// wastes, as a function of the download's nominal cost: a CRC error is
// detected partway through the frame stream, a timeout only after the
// full window has elapsed (plus the discarded download), and a pin
// glitch by the boundary scan after a complete download.
func configFaultCharge(kind fault.Kind, base sim.Time) sim.Time {
	switch kind {
	case fault.ConfigError:
		return base / 2
	case fault.ConfigTimeout:
		return 2 * base
	default: // pin glitch
		return base
	}
}

// attempt runs one device operation under the fault plan: try does the
// device work of an attempt (nil when there is none), then the injector is
// asked about point p. A clean draw ends the operation. An injected fault
// calls faulted, which undoes or corrupts what try did and says what the
// fault wastes and how the timeline names it; the waste goes to
// Metrics.FaultTime, and the operation either retries (with doubling
// backoff) or, once the attempt budget is gone, escalates with a typed
// *fault.EscalationError. It returns the fault and backoff time charged on
// top of the caller's nominal cost.
func (l *Ledger) attempt(p fault.Point, op, owner, circuit string, region fabric.Region, page int,
	try func() error, faulted func(kind fault.Kind, aux uint64) (charge sim.Time, note string)) (extra sim.Time, err error) {
	attempts := l.maxAttempts()
	for attempt := 1; ; attempt++ {
		if try != nil {
			if err := try(); err != nil {
				return extra, err
			}
		}
		kind, aux := l.nextFault(p)
		if kind == fault.None {
			if attempt > 1 {
				l.e.M.FaultRecoveries++
			}
			return extra, nil
		}
		charge, note := faulted(kind, aux)
		extra += charge
		if attempt >= attempts {
			l.noteFault(owner, circuit, region, page, charge, note+" escalated")
			l.e.M.FaultEscalations++
			return extra, &fault.EscalationError{Kind: kind, Op: op, Circuit: circuit, Attempts: attempt}
		}
		l.noteFault(owner, circuit, region, page, charge, note)
		extra += l.noteRetry(owner, circuit, region, page, attempt, kind)
	}
}

// applyConfig writes c's bitstream at column x; an injected config fault
// wipes the partial strip. On success the device holds the applied
// configuration.
func (l *Ledger) applyConfig(op, owner string, c *compile.Circuit, x int, in, out []int, region fabric.Region, base sim.Time) (sim.Time, error) {
	return l.attempt(fault.PointConfig, op, owner, c.Name, region, -1,
		func() error {
			if _, _, err := c.BS.Apply(l.e.Dev, x, 0, &bitstream.PinBinding{In: in, Out: out}); err != nil {
				return fmt.Errorf("core: apply %s at column %d: %w", c.Name, x, err)
			}
			return nil
		},
		func(kind fault.Kind, _ uint64) (sim.Time, string) {
			l.e.Dev.ClearRegion(region)
			return configFaultCharge(kind, base), kind.String()
		})
}

// Load is TryLoad for contexts where failure is a program bug (managers
// validate fit at Register time).
func (l *Ledger) Load(owner string, c *compile.Circuit, x int, wholeDevice bool) (mux int, cost sim.Time) {
	mux, cost, err := l.TryLoad(owner, c, x, wholeDevice)
	if err != nil {
		panic(err)
	}
	return mux, cost
}

// evict clears the strip at x, returns its pins, and drops the residency.
func (l *Ledger) evict(x int, voluntary bool) {
	r := l.ResidentAt(x)
	if r == nil {
		panic(fmt.Sprintf("core: evict of empty column %d", x))
	}
	l.e.Dev.ClearRegion(r.Region)
	l.e.FreePins(r.Pins)
	l.remove(r)
	if !voluntary {
		l.e.M.Evictions++
	}
	l.emit(OpEvict, r.Owner, r.Circuit, r.Region, -1, 0, voluntary)
	l.e.noteUtil(l.now())
}

// Evict displaces the resident strip at column x to make room for
// another circuit. Clearing configuration RAM is free in the timing
// model; the displaced state, if any, must be read back first.
func (l *Ledger) Evict(x int) {
	defer l.enter()()
	l.evict(x, false)
}

// Release returns the strip at column x voluntarily (owner exit or
// hand-back); it clears the device like Evict but is not counted as a
// displacement in Metrics.Evictions.
func (l *Ledger) Release(x int) {
	defer l.enter()()
	l.evict(x, true)
}

// Readback reads the flip-flop state of c's footprint at region into OS
// tables (the paper's §3 observability requirement), charging the
// readback time. An escalation panics with the typed error: the callers
// (preemption paths deep inside managers) have no error return, and a
// failed state save is not a placement condition policy can route around.
// The serve layer maps the panic to a typed job failure.
func (l *Ledger) Readback(owner string, c *compile.Circuit, region fabric.Region) ([]bool, sim.Time) {
	defer l.enter()()
	st, cost, err := l.readback(owner, c, region)
	if err != nil {
		panic(err)
	}
	return st, cost
}

// bitNote names an injected state fault by the bit of the n-bit vector it
// flips.
func bitNote(kind fault.Kind, aux uint64, n int) string {
	if n == 0 {
		return kind.String()
	}
	return fmt.Sprintf("%s bit %d", kind, int(aux%uint64(n)))
}

func (l *Ledger) readback(owner string, c *compile.Circuit, region fabric.Region) ([]bool, sim.Time, error) {
	cost := l.e.Opt.Timing.ReadbackTime(c.BS.FFCells)
	var st []bool
	extra, err := l.attempt(fault.PointReadback, "readback", owner, c.Name, region, -1,
		func() error {
			st = l.e.Dev.ReadRegionState(region)
			return nil
		},
		// The shadow CRC catches the flipped bit; the whole read is
		// discarded and its time wasted.
		func(kind fault.Kind, aux uint64) (sim.Time, string) { return cost, bitNote(kind, aux, len(st)) })
	if err != nil {
		return nil, extra, err
	}
	l.e.M.Readbacks++
	l.e.M.ReadbackTime += cost
	l.emit(OpReadback, owner, c.Name, region, -1, cost, false)
	return st, cost + extra, nil
}

// Restore writes previously saved flip-flop state back into c's
// footprint (§3 controllability), charging the restore time. It escalates
// by panic for the same reason Readback does.
func (l *Ledger) Restore(owner string, c *compile.Circuit, region fabric.Region, state []bool) sim.Time {
	defer l.enter()()
	cost, err := l.restore(owner, c, region, state)
	if err != nil {
		panic(err)
	}
	return cost
}

func (l *Ledger) restore(owner string, c *compile.Circuit, region fabric.Region, state []bool) (sim.Time, error) {
	cost := l.e.Opt.Timing.RestoreTime(c.BS.FFCells)
	extra, err := l.attempt(fault.PointRestore, "restore", owner, c.Name, region, -1,
		func() error {
			l.e.Dev.WriteRegionState(region, state)
			return nil
		},
		// The write-back lands with one bit wrong (on top of the good one
		// above, which every attempt writes before its draw); the verifying
		// readback disagrees and the attempt is rolled back. The corrupted
		// state really reaches the device so an escalated board is
		// observably wrong, not just slow.
		func(kind fault.Kind, aux uint64) (sim.Time, string) {
			if len(state) > 0 {
				corrupt := slices.Clone(state)
				bit := int(aux % uint64(len(state)))
				corrupt[bit] = !corrupt[bit]
				l.e.Dev.WriteRegionState(region, corrupt)
			}
			return cost, bitNote(kind, aux, len(state))
		})
	if err != nil {
		return extra, err
	}
	l.e.M.Restores++
	l.e.M.RestoreTime += cost
	l.emit(OpRestore, owner, c.Name, region, -1, cost, false)
	return cost + extra, nil
}

// Reset forces every flip-flop in c's footprint back to its configured
// init value (first use, or restart after rollback), scanning in the
// device's x-major state order. It costs a state write but is not a
// restore of saved state, so Metrics.Restores stays untouched.
func (l *Ledger) Reset(owner string, c *compile.Circuit, region fabric.Region) sim.Time {
	defer l.enter()()
	init := slices.Grow(l.initBuf[:0], c.BS.FFCells)
	for x := region.X; x < region.X+region.W; x++ {
		for y := region.Y; y < region.Y+region.H; y++ {
			cfg := l.e.Dev.CLB(x, y)
			if cfg.Used && cfg.UseFF {
				init = append(init, cfg.FFInit)
			}
		}
	}
	l.e.Dev.WriteRegionState(region, init)
	l.initBuf = init
	cost := l.e.Opt.Timing.RestoreTime(c.BS.FFCells)
	l.e.M.RestoreTime += cost
	l.emit(OpReset, owner, c.Name, region, -1, cost, false)
	return cost
}

// Rollback records that owner's in-flight operation on circuit restarts
// from its beginning (§3's alternative to save/restore). The device is
// untouched: the reset happens when the circuit is next adopted.
func (l *Ledger) Rollback(owner, circuit string) {
	defer l.enter()()
	l.e.M.Rollbacks++
	l.emit(OpRollback, owner, circuit, fabric.Region{}, -1, 0, false)
}

// Relocate moves the resident strip at oldX to newX (§4's garbage
// collection) and returns the total time charged: sequential state is read
// back, the old strip cleared, the configuration re-applied at the new
// origin with the same pins, and the state restored. The regions may
// overlap — the old strip is cleared before the new one is written.
//
// A manager cannot unwind a move whose retry budget ran out, so the typed
// escalation panics, as Readback's does. A readback escalation leaves the
// strip untouched at oldX; an apply or restore escalation has already
// destroyed (or corrupted) it, so it is dropped as an involuntary eviction
// before the panic, which keeps table and audit balanced.
func (l *Ledger) Relocate(oldX, newX int) (cost sim.Time) {
	defer l.enter()()
	r := l.ResidentAt(oldX)
	if r == nil {
		panic(fmt.Sprintf("core: relocate of empty column %d", oldX))
	}
	if oldX == newX {
		return 0
	}
	var state []bool
	if r.C.Sequential {
		var err error
		if state, cost, err = l.readback(r.Owner, r.C, r.Region); err != nil {
			panic(err)
		}
	}
	l.e.Dev.ClearRegion(r.Region)
	in, out := binding(r.C, r.Pins)
	newRegion := r.C.BS.Region(newX, 0)
	ccost := r.C.BS.ConfigCost(l.e.Opt.Timing)
	extra, err := l.applyConfig("relocate", r.Owner, r.C, newX, in, out, newRegion, ccost)
	cost += extra
	if err == nil {
		l.e.M.ConfigTime += ccost
		cost += ccost
		l.remove(r)
		r.Region = newRegion
		l.insert(r)
		l.e.M.Relocations++
		l.emit(OpRelocate, r.Owner, r.Circuit, newRegion, -1, ccost, false)
		if r.C.Sequential {
			var rcost sim.Time
			rcost, err = l.restore(r.Owner, r.C, newRegion, state)
			cost += rcost
		}
	}
	if err != nil {
		if _, ok := fault.AsEscalation(err); !ok {
			panic(fmt.Sprintf("core: relocate %s to column %d: %v", r.Circuit, newX, err))
		}
		// Destroyed by the apply (the table still has it at the old
		// origin) or corrupted by the restore (already at the new one).
		l.evict(r.Region.X, false)
		panic(err)
	}
	l.e.noteUtil(l.now())
	return cost
}

// LoadPage charges one demand-paged configuration download of cells CLB
// tiles for page index page of circuit (§2 pagination). Page frames are
// a residency/timing view of configuration RAM, so no fabric cells are
// written (see PagedLoader); the fault, the load and the download time
// are still accounted here, in the same ledger as every other download.
func (l *Ledger) LoadPage(owner, circuit string, page, cells int) sim.Time {
	defer l.enter()()
	base := l.e.Opt.Timing.PartialConfigTime(cells, 0)
	// Page downloads share the configuration port, so they share the
	// config injection point. There is no fabric region to wipe (frames
	// are a residency view); a faulted download is simply re-sent.
	extra, err := l.attempt(fault.PointConfig, "page", owner, circuit, fabric.Region{}, page, nil,
		func(kind fault.Kind, _ uint64) (sim.Time, string) {
			return configFaultCharge(kind, base), kind.String()
		})
	if err != nil {
		panic(err)
	}
	l.e.M.PageFaults++
	l.e.M.PageLoads++
	l.e.M.ConfigTime += base
	l.emit(OpLoad, owner, circuit, fabric.Region{}, page, base, false)
	return base + extra
}

// EvictPage records the displacement of a resident page by the
// replacement policy.
func (l *Ledger) EvictPage(owner, circuit string, page int) {
	defer l.enter()()
	l.e.M.Evictions++
	l.emit(OpEvict, owner, circuit, fabric.Region{}, page, 0, false)
}

// ReleasePage records a page frame freed because no live task references
// its circuit anymore (task exit); like Release it does not count as a
// displacement.
func (l *Ledger) ReleasePage(owner, circuit string, page int) {
	defer l.enter()()
	l.emit(OpEvict, owner, circuit, fabric.Region{}, page, 0, true)
}

// NoteBlock records that owner suspended waiting for device space.
func (l *Ledger) NoteBlock(owner string) {
	defer l.enter()()
	l.e.M.Blocks++
	l.emit(OpBlock, owner, "", fabric.Region{}, -1, 0, false)
}

// NoteGC records the start of a garbage-collection (compaction) run.
func (l *Ledger) NoteGC() {
	defer l.enter()()
	l.e.M.GCRuns++
	l.emit(OpGC, "", "", fabric.Region{}, -1, 0, false)
}

// Adopt transfers the residency at column x to a new owner without
// touching the device: the configured strip is reused in place (the
// amorphous manager's residency cache). Pure bookkeeping — no cost, no
// metrics, no event; any state reset is the adopter's policy to charge.
func (l *Ledger) Adopt(x int, owner string) {
	defer l.enter()()
	r := l.ResidentAt(x)
	if r == nil {
		panic(fmt.Sprintf("core: adopt of empty column %d", x))
	}
	r.Owner = owner
}
