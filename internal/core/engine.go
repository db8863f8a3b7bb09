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
	"sync"
	"sync/atomic"

	"repro/internal/compile"
	"repro/internal/fabric"
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
	// Seed drives circuit compilation in the library.
	Seed uint64
}

// DefaultOptions returns the XC4000-calibrated engine configuration.
func DefaultOptions() Options {
	return Options{
		Geometry:   fabric.DefaultGeometry(),
		Timing:     fabric.DefaultTiming(),
		State:      SaveRestore,
		Completion: Apriori,
		Seed:       1,
	}
}

// Metrics aggregates what the managers do to the device.
type Metrics struct {
	Loads       stats.Counter // configuration downloads
	Evictions   stats.Counter // circuits displaced from the device
	Readbacks   stats.Counter // state save operations
	Restores    stats.Counter // state restore operations
	Rollbacks   stats.Counter // operations restarted from scratch
	PageFaults  stats.Counter
	PageLoads   stats.Counter
	GCRuns      stats.Counter
	Relocations stats.Counter // circuits moved by garbage collection
	Blocks      stats.Counter // tasks suspended waiting for FPGA space
	MuxedOps    stats.Counter // operations run with multiplexed pins

	// Fault-injection accounting (zero unless a fault.Injector is armed
	// on the ledger). Every injected fault is followed by exactly one
	// retry or one escalation, so FaultsInjected equals FaultRetries
	// plus FaultEscalations — the conformance audit pins that.
	FaultsInjected   stats.Counter // injected faults detected
	FaultRetries     stats.Counter // recovery retries after a fault
	FaultRecoveries  stats.Counter // operations that succeeded after >=1 fault
	FaultEscalations stats.Counter // operations whose retry budget ran out

	ConfigTime   sim.Time // total time spent downloading configurations
	ReadbackTime sim.Time
	RestoreTime  sim.Time
	FaultTime    sim.Time // time wasted on injected faults and retry backoff

	Util stats.TimeWeighted // CLBs configured, over time
}

// Engine bundles the device, timing model, pin pool, compiled-circuit
// library, metrics and the residency ledger that every manager shares.
// An engine serves one run; of all it holds only the device may outlive
// it, erased, under the engine of a board's next job (NewEngine).
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
	// unallocated. AllocPins hands out the lowest-numbered free pins, so
	// which pins a circuit gets depends only on which are free, never on
	// the order they came back in.
	freePins []uint64
	nFree    int
}

// NewEngine creates an engine with an empty circuit library over dev, a
// blank device of opt's geometry: one just erased (a board recycles its
// hardware from job to job), or a new one when dev is nil.
func NewEngine(opt Options, dev *fabric.Device) *Engine {
	if dev == nil {
		dev = fabric.NewDevice(opt.Geometry)
	}
	n := opt.Geometry.NumPins()
	e := &Engine{
		Dev:      dev,
		Opt:      opt,
		Lib:      map[string]*compile.Circuit{},
		freePins: make([]uint64, (n+63)/64),
		nFree:    n,
	}
	e.led = Ledger{e: e}
	for p := 0; p < n; p++ {
		e.freePins[p/64] |= 1 << (p % 64)
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
	errs := make([]error, len(misses))
	fanOut(len(misses), compile.Flows(), func(k int) {
		i := misses[k]
		if cache != nil {
			circs[i], errs[k] = cache.CompileStrip(nls[i], rows, tracks, stripOptions(&opt, i))
		} else {
			circs[i], errs[k] = compile.CompileStrip(nls[i], rows, tracks, stripOptions(&opt, i))
		}
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// fanOut calls fn(k) for every k in [0, n) on up to workers goroutines,
// the caller's among them, and returns when every call has. A panicking
// call does not stop the others: once all have returned, the panic of
// the least k is raised again on the caller's goroutine.
func fanOut(n, workers int, fn func(k int)) {
	workers = max(1, min(workers, n))
	panics := make([]any, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	work := func() {
		defer wg.Done()
		for k := int(next.Add(1) - 1); k < n; k = int(next.Add(1) - 1) {
			func() {
				defer func() { panics[k] = recover() }()
				fn(k)
			}()
		}
	}
	wg.Add(workers)
	for w := 1; w < workers; w++ {
		go work()
	}
	work()
	wg.Wait()
	for _, p := range panics {
		if p != nil {
			panic(p)
		}
	}
}

// AddCircuit compiles nl as the library's next circuit and registers it
// under its netlist name.
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

// AllocPins takes up to want pins from the pool, lowest-numbered first
// and in ascending order. It returns the pins and the multiplexing
// factor: 1 when fully satisfied, >1 when the circuit's virtual pins must
// be time-multiplexed over fewer physical pins (§2's input/output
// multiplexing). At least one pin is required.
func (e *Engine) AllocPins(want int) (pins []int, mux int, err error) {
	if want == 0 {
		return nil, 1, nil
	}
	if e.nFree == 0 {
		return nil, 0, fmt.Errorf("core: no physical pins available")
	}
	n := want
	if n > e.nFree {
		n = e.nFree
	}
	pins = make([]int, 0, n)
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

// DoneSignal completion: the OS polls the completion flag every
// pollInterval and pays pollCost of CPU time per poll.
const (
	pollInterval = 100 * sim.Microsecond
	pollCost     = 1 * sim.Microsecond
)

// ExecQuantum converts a pure hardware duration into the time the OS
// observes, applying completion detection (§3) and pin multiplexing.
func (e *Engine) ExecQuantum(pure sim.Time, mux int) sim.Time {
	if mux > 1 {
		pure *= sim.Time(mux)
	}
	if e.Opt.Completion == DoneSignal && pure > 0 {
		polls := (pure + pollInterval - 1) / pollInterval
		pure = polls*pollInterval + polls*pollCost
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
func binding(c *compile.Circuit, pins []int) ([]int, []int) {
	ports := make([]int, c.BS.NumIn+c.BS.NumOut)
	in, out := ports[:c.BS.NumIn:c.BS.NumIn], ports[c.BS.NumIn:]
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
