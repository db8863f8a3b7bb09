// Package core implements the paper's contribution: the Virtual FPGA.
//
// A physical FPGA (internal/fabric) is multiplexed among the tasks of a
// multitasking host OS (internal/hostos) by operating-system techniques
// borrowed from virtual memory, exactly as the paper proposes:
//
//   - DynamicLoader  — §3 dynamic loading: download a task's configuration
//     when needed, with completion detection (a-priori timing or done
//     signal) and preemption via rollback or state save/restore;
//   - PartitionManager — §4 partitioning: fixed- or variable-size column
//     partitions, task suspension, rotation, and garbage collection with
//     circuit relocation;
//   - OverlayManager — §2 overlaying: frequently-used common functions
//     stay resident while rare ones share an overlay area;
//   - PagedLoader — §2 pagination: configurations split into fixed-size
//     pages loaded on demand with LRU/FIFO/Clock/Random replacement;
//   - pin multiplexing — §2 input/output multiplexing: virtual pins beyond
//     the physical pin count are time-multiplexed at a throughput cost.
//
// All managers implement hostos.FPGA and operate on a real simulated
// device: bitstreams are actually downloaded into configuration RAM and
// flip-flop state is actually read back and restored, so the correctness
// properties (a preempted counter resumes exactly) are testable, not
// assumed.
package core

import (
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/compile"
	"repro/internal/fabric"
	"repro/internal/flat"
	"repro/internal/netlist"
	"repro/internal/sim"
	"repro/internal/stats"
)

// StatePolicy selects how sequential circuits survive preemption (§3).
type StatePolicy int

// State policies.
const (
	// SaveRestore reads back flip-flop state on preemption and restores it
	// on resume — requires the observability/controllability the paper
	// demands of preemptable designs.
	SaveRestore StatePolicy = iota
	// Rollback restarts the interrupted operation from its beginning.
	Rollback
	// NonPreemptable refuses mid-operation preemption: the OS lets the
	// operation finish past the time slice.
	NonPreemptable
)

func (p StatePolicy) String() string {
	switch p {
	case SaveRestore:
		return "save-restore"
	case Rollback:
		return "rollback"
	case NonPreemptable:
		return "non-preemptable"
	}
	return fmt.Sprintf("state(%d)", int(p))
}

// CompletionMode selects how the OS learns that the FPGA finished (§3).
type CompletionMode int

// Completion detection modes.
const (
	// Apriori trusts the compiler's timing estimate: the OS waits exactly
	// the computed execution time.
	Apriori CompletionMode = iota
	// DoneSignal adds a service circuit raising a completion flag; the OS
	// polls it, quantizing execution to the polling interval.
	DoneSignal
)

func (m CompletionMode) String() string {
	if m == DoneSignal {
		return "done-signal"
	}
	return "a-priori"
}

// Options parameterizes an Engine.
type Options struct {
	Geometry   fabric.Geometry
	Timing     fabric.Timing
	State      StatePolicy
	Completion CompletionMode
	// PollInterval is how often the OS polls a circuit's completion flag
	// under DoneSignal, and PollCost the CPU time each poll costs. They
	// sit beside fabric.Timing, not in it: compile.CacheKey holds the
	// timing model, and a key past 128 bytes costs the cache's maps an
	// allocation per compile.
	PollInterval, PollCost sim.Time
	// Seed drives circuit compilation in the library.
	Seed uint64
}

// DefaultOptions returns the XC4000-calibrated engine configuration.
func DefaultOptions() Options {
	return Options{
		Geometry:     fabric.DefaultGeometry(),
		Timing:       fabric.DefaultTiming(),
		State:        SaveRestore,
		Completion:   Apriori,
		PollInterval: 100 * sim.Microsecond,
		PollCost:     1 * sim.Microsecond,
		Seed:         1,
	}
}

// Metrics aggregates what the managers do to the device: the counts the
// ledger keeps and the utilization over time.
type Metrics struct {
	Counts
	Util stats.TimeWeighted // CLBs configured, over time
}

// Engine bundles the device, timing model, pin pool, compiled-circuit
// library, metrics and the residency ledger that every manager shares.
// An engine serves one run; a board's next job renews it in place
// (NewEngine), over its device, erased, and in its own memory.
//
// An Engine is single-goroutine by design, like the sim.Kernel that
// drives it: the device, metrics, pin pool and ledger perform no
// internal locking. A concurrent serving layer must give each engine
// (and the OS and managers built over it) a dedicated goroutine — the
// vfpgad board pool runs one board per goroutine for exactly this
// reason. The ledger backs this contract with a cheap assertion that
// panics on concurrent mutation (see Ledger).
type Engine struct {
	Dev *fabric.Device
	Opt Options
	Lib map[string]*compile.Circuit
	M   Metrics
	led Ledger

	// The free pin pool: bit p%64 of freePins[p/64] is set while pin p is
	// unallocated. allocPins hands out the lowest-numbered free pins, so
	// which pins a circuit gets depends only on which are free, never on
	// the order they came back in.
	freePins []uint64
	nFree    int
}

// NewEngine creates an engine with an empty circuit library, every pin
// free and nothing resident, over a blank device of opt's geometry.
// used is the engine of a board's last job, whose device the caller has
// erased, or nil for a new device: used is renewed in place and
// returned — its device, library map, pin bitmap and the ledger's
// tables and record arrays, emptied, serve the new run — and whatever
// the old run's managers hold of it is dead.
func NewEngine(opt Options, used *Engine) *Engine {
	e := used
	if e == nil {
		e = &Engine{Dev: fabric.NewDevice(opt.Geometry), Lib: map[string]*compile.Circuit{}}
	}
	clear(e.Lib)
	old, n := &e.led, opt.Geometry.NumPins()
	*e = Engine{
		Dev:      e.Dev,
		Opt:      opt,
		Lib:      e.Lib,
		freePins: slices.Grow(e.freePins[:0], (n+63)/64),
		nFree:    n,
		led: Ledger{e: e, residents: old.residents[:0],
			resBuf: flat.Rewind(old.resBuf, old.records), pinBuf: flat.Rewind(old.pinBuf, old.pinned),
			initBuf: old.initBuf[:0]},
	}
	for p := 0; p < n; p += 64 { // a word of free pins, the last one's n-p
		e.freePins = append(e.freePins, ^uint64(0)>>max(0, 64-(n-p)))
	}
	return e
}

// Ledger returns the engine's residency ledger — the single transaction
// layer through which every manager touches the device.
func (e *Engine) Ledger() *Ledger { return &e.led }

// CompileSet compiles nls as full-height strips for opt's geometry and
// timing and returns them in order. It is the one statement of the seed
// rule every golden depends on: circuit i of a set compiles with
// opt.Seed+i. A nil cache compiles uncached; a shared cache returns the
// same *Circuit for the same netlist name, shape, timing and seed.
//
// Cache hits are served in order on the caller's goroutine. The rest
// compile in parallel, up to one per compile flow, and land by index, so
// the result does not depend on which finishes first. The error returned
// is the first in set order; a panic in any compile is raised again on
// the caller's goroutine once every compile has returned.
func CompileSet(cache *compile.StripCache, opt Options, nls []*netlist.Netlist) ([]*compile.Circuit, error) {
	rows, tracks := opt.Geometry.Rows, opt.Geometry.TracksPerChannel
	circs := make([]*compile.Circuit, len(nls))
	var misses []int
	for i, nl := range nls {
		if cache != nil {
			if c, ok := cache.Cached(nl, rows, tracks, stripOptions(&opt, i)); ok {
				circs[i] = c
				continue
			}
		}
		misses = append(misses, i)
	}
	if len(misses) == 0 {
		return circs, nil
	}
	if err := compileMisses(cache, opt, nls, misses, circs); err != nil {
		return nil, err
	}
	return circs, nil
}

// stripOptions are the compile options of circuit i of a set.
func stripOptions(opt *Options, i int) compile.Options {
	return compile.Options{Seed: opt.Seed + uint64(i), Timing: &opt.Timing}
}

// compileMisses compiles circuit i of nls into circs[i] for each i in
// misses, fanned out over the compile flows, and returns the first error
// in set order. opt is a copy of CompileSet's own, so that only a set
// with something to compile moves it to the heap.
func compileMisses(cache *compile.StripCache, opt Options, nls []*netlist.Netlist, misses []int, circs []*compile.Circuit) error {
	rows, tracks := opt.Geometry.Rows, opt.Geometry.TracksPerChannel
	_, err := flat.Map(len(misses), compile.Flows(), func(k int) (_ struct{}, err error) {
		i := misses[k]
		if cache != nil {
			circs[i], err = cache.CompileStrip(nls[i], rows, tracks, stripOptions(&opt, i))
		} else {
			circs[i], err = compile.CompileStrip(nls[i], rows, tracks, stripOptions(&opt, i))
		}
		return
	})
	return err
}

// AddCircuit compiles nl as the library's next circuit and registers it
// under its netlist name.
//
//vfpgavet:ignore testonly -- observation hook: core and baseline tests build engines around hand-picked circuits
func (e *Engine) AddCircuit(nl *netlist.Netlist) error {
	if _, dup := e.Lib[nl.Name]; dup {
		return nil // idempotent: same generator registered by many tasks
	}
	opt := e.Opt
	opt.Seed += uint64(len(e.Lib))
	circs, err := CompileSet(nil, opt, []*netlist.Netlist{nl})
	if err != nil {
		return err
	}
	e.Lib[nl.Name] = circs[0]
	return nil
}

// Circuit returns the named compiled circuit.
func (e *Engine) Circuit(name string) (*compile.Circuit, error) {
	c, ok := e.Lib[name]
	if !ok {
		return nil, fmt.Errorf("core: circuit %q not in library", name)
	}
	return c, nil
}

// allocPins takes up to want pins from the pool, lowest-numbered first
// and in ascending order, into a slice carved from *buf (a new array of
// at least chunk pins when it runs short; see flat.Carve). It returns the
// pins and the multiplexing factor: 1 when fully satisfied, >1 when the
// circuit's virtual pins must be time-multiplexed over fewer physical
// pins (§2's input/output multiplexing). At least one pin is required.
func (e *Engine) allocPins(want int, buf *[]int, chunk int) (pins []int, mux int, err error) {
	if want == 0 {
		return nil, 1, nil
	}
	if e.nFree == 0 {
		return nil, 0, fmt.Errorf("core: no physical pins available")
	}
	n := min(want, e.nFree)
	pins = flat.Carve(buf, n, chunk)[:0]
	for w := 0; len(pins) < n; w++ {
		for e.freePins[w] != 0 && len(pins) < n {
			b := bits.TrailingZeros64(e.freePins[w])
			e.freePins[w] &^= 1 << b
			pins = append(pins, w*64+b)
		}
	}
	e.nFree -= n
	mux = (want + n - 1) / n
	return pins, mux, nil
}

// FreePins returns pins to the pool and clears their configuration, so a
// pin never outlives the residency it was bound for: ClearRegion only
// disconnects output pins driven from inside the region, which leaves a
// pass-through output (driven straight from an input pin) reading a pin
// the next circuit is free to re-purpose. Clearing is free in the timing
// model, like every configuration clear. The slice stays the caller's:
// it is neither changed nor kept.
func (e *Engine) FreePins(pins []int) {
	for _, p := range pins {
		e.Dev.WritePin(p, fabric.PinConfig{})
		word, bit := &e.freePins[p/64], uint64(1)<<(p%64)
		if *word&bit != 0 {
			panic(fmt.Sprintf("core: pin %d freed twice", p))
		}
		*word |= bit
	}
	e.nFree += len(pins)
}

// FreePinCount returns the number of unallocated pins.
func (e *Engine) FreePinCount() int { return e.nFree }

// ExecQuantum converts a pure hardware duration into the time the OS
// observes, applying completion detection (§3) and pin multiplexing:
// under DoneSignal the OS polls the completion flag every
// Options.PollInterval and pays Options.PollCost of CPU time per poll.
func (e *Engine) ExecQuantum(pure sim.Time, mux int) sim.Time {
	if mux > 1 {
		pure *= sim.Time(mux)
	}
	if o := &e.Opt; o.Completion == DoneSignal && pure > 0 {
		polls := (pure + o.PollInterval - 1) / o.PollInterval
		pure = polls*o.PollInterval + polls*o.PollCost
	}
	return pure
}

// noteUtil samples device occupancy into the utilization metric.
func (e *Engine) noteUtil(now sim.Time) {
	e.M.Util.Set(int64(now), float64(e.Dev.UsedCells()))
}

// binding builds a wrap-around pin binding for a circuit given its
// allocated physical pins: with fewer pins than ports, several virtual
// ports share a pin (time multiplexing; functional use requires mux==1).
// A full pin set is its own binding, in order: the ports are cut from
// the pins themselves, and nothing is allocated.
func binding(c *compile.Circuit, pins []int) ([]int, []int) {
	nIn := c.BS.NumIn
	if len(pins) == nIn+c.BS.NumOut {
		return pins[:nIn:nIn], pins[nIn:]
	}
	ports := make([]int, nIn+c.BS.NumOut)
	in, out := ports[:nIn:nIn], ports[nIn:]
	if len(pins) == 0 {
		for i := range in {
			in[i] = -1
		}
		for i := range out {
			out[i] = -1
		}
		return in, out
	}
	k := 0
	for i := range in {
		in[i] = pins[k%len(pins)]
		k++
	}
	for i := range out {
		out[i] = pins[k%len(pins)]
		k++
	}
	return in, out
}
