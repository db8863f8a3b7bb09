// Package compile is the end-to-end CAD flow facade: it takes a gate-level
// netlist through technology mapping, placement, routing and bitstream
// generation, producing the relocatable configuration image plus the
// timing the operating system needs (critical path, clock period, download
// cost, state volume).
//
// Compilation happens "offline" — in the paper's model, the task designer
// compiles configurations before the task is loaded; at run time the
// operating system only downloads bitstreams. Accordingly nothing here is
// charged to virtual time.
package compile

import (
	"fmt"
	"runtime"
	"sync"

	"repro/internal/bitstream"
	"repro/internal/fabric"
	"repro/internal/lint"
	"repro/internal/netlist"
	"repro/internal/place"
	"repro/internal/route"
	"repro/internal/sim"
	"repro/internal/techmap"
)

// Options tunes the flow. CacheKey holds every field, so a strip compile
// is keyed on all of them.
type Options struct {
	// Seed drives the placer.
	Seed uint64
	// Timing supplies delay constants; the zero value selects
	// fabric.DefaultTiming.
	Timing *fabric.Timing
	// DisableOpt skips the netlist optimization pass (constant folding,
	// CSE, dead-logic removal) — the ablation knob for measuring what the
	// logic optimizer is worth in CLBs.
	DisableOpt bool
}

// Circuit is a fully compiled design: everything the VFPGA manager needs
// to load, run, preempt, relocate and page it.
type Circuit struct {
	Name    string
	Netlist *netlist.Netlist
	Mapped  *techmap.Mapped
	Placed  *place.Placement
	Routed  *route.Result
	BS      *bitstream.Bitstream
	// ClockPeriod is the operating clock period (critical path with the
	// device's floor applied).
	ClockPeriod sim.Time
	// Sequential reports whether the circuit holds state.
	Sequential bool
}

// Cells returns the circuit's area in CLBs.
func (c *Circuit) Cells() int { return c.BS.NumCells() }

// Footprint returns the region shape the circuit occupies.
func (c *Circuit) Footprint() (w, h int) { return c.BS.W, c.BS.H }

// String renders a one-line report.
func (c *Circuit) String() string {
	return fmt.Sprintf("%s: %dx%d, %d cells, clk %v, seq=%v",
		c.Name, c.BS.W, c.BS.H, c.Cells(), c.ClockPeriod, c.Sequential)
}

// A flow is one compile's working set: the arrays each stage of the flow
// works in, kept from compile to compile. A compile that takes a flow
// whose arrays have grown to its size allocates its artifact and nothing
// else; a flow's arrays stay at the largest compile it has run.
type flow struct {
	optimizer netlist.Optimizer
	mapper    techmap.Mapper
	placer    place.Placer
	router    route.Router
}

// flows is the package's GOMAXPROCS flows. A flow is also the token to
// compile: every Compile and CompileStrip — a StripCache miss is one —
// takes a flow and gives it back, so at most GOMAXPROCS compiles run at
// once, process-wide, and the arrays they keep are bounded by GOMAXPROCS
// times the largest compile.
var flows = newFlowStack(runtime.GOMAXPROCS(0))

// flowStack holds the free flows, the one given back last on top: a
// compile takes the flow whose arrays are warmest, and one compiler
// alone keeps a single flow's arrays grown.
type flowStack struct {
	n int // flows in all, free or taken

	mu   sync.Mutex
	cond sync.Cond // on mu; signalled when a flow is given back
	free []*flow
}

func newFlowStack(n int) *flowStack {
	s := &flowStack{n: n, free: make([]*flow, n)}
	s.cond.L = &s.mu
	for i := range s.free {
		s.free[i] = new(flow)
	}
	return s
}

// take waits for a free flow and takes it.
func (s *flowStack) take() *flow {
	s.mu.Lock()
	for len(s.free) == 0 {
		s.cond.Wait()
	}
	f := s.free[len(s.free)-1]
	s.free = s.free[:len(s.free)-1]
	s.mu.Unlock()
	return f
}

// give returns a taken flow. A stage resets every array it reads, so a
// flow a panicking compile gives back is as good as any.
func (s *flowStack) give(f *flow) {
	s.mu.Lock()
	s.free = append(s.free, f)
	s.mu.Unlock()
	s.cond.Signal()
}

// Flows returns how many compiles can run at once: the number of flows.
// A caller fanning independent compiles out gains nothing from more
// goroutines than this.
func Flows() int { return flows.n }

// maxGrowth bounds the region-growth retries of Compile.
const maxGrowth = 6

// Compile runs the full flow on nl at the default geometry's channel
// capacity, growing a near-square region ~20% per retry until the design
// routes.
func Compile(nl *netlist.Netlist, opt Options) (*Circuit, error) {
	f := flows.take()
	defer flows.give(f)
	m, err := f.frontEnd(nl, opt)
	if err != nil {
		return nil, err
	}
	tracks := fabric.DefaultGeometry().TracksPerChannel
	w, h := place.Shape(m.NumCells())
	for attempt := 0; ; attempt++ {
		try := opt
		try.Seed += uint64(attempt)
		c, err := f.backEnd(nl, m, w, h, tracks, try)
		if err == nil || attempt == maxGrowth {
			return c, err
		}
		if w <= h {
			w++
		} else {
			h++
		}
		w += w / 10
		h += h / 10
	}
}

// frontEnd is the shape-independent half of the flow: logic optimization
// and technology mapping.
func (f *flow) frontEnd(nl *netlist.Netlist, opt Options) (*techmap.Mapped, error) {
	src := nl
	if !opt.DisableOpt {
		src = f.optimizer.Optimize(nl)
	}
	m, err := f.mapper.Map(src)
	if err != nil {
		return nil, fmt.Errorf("compile %s: %w", nl.Name, err)
	}
	return m, nil
}

// backEnd places, routes and generates the mapped design m of nl into a
// w x h region with tracks per channel; it never changes the shape.
func (f *flow) backEnd(nl *netlist.Netlist, m *techmap.Mapped, w, h, tracks int, opt Options) (*Circuit, error) {
	timing := fabric.DefaultTiming()
	if opt.Timing != nil {
		timing = *opt.Timing
	}
	p, err := f.placer.Place(m, w, h, place.Options{Seed: opt.Seed})
	if err != nil {
		return nil, fmt.Errorf("compile %s: %w", nl.Name, err)
	}
	r, err := f.router.Route(p, tracks, route.Options{})
	if err != nil {
		return nil, fmt.Errorf("compile %s: %w", nl.Name, err)
	}
	bs := bitstream.Generate(r, timing)
	return &Circuit{
		Name:        nl.Name,
		Netlist:     nl,
		Mapped:      m,
		Placed:      p,
		Routed:      r,
		BS:          bs,
		ClockPeriod: timing.ClockPeriod(bs.Delay),
		Sequential:  nl.IsSequential(),
	}, nil
}

// Verify runs the static verifier over a compiled circuit — the source
// netlist plus the generated bitstream — and returns every diagnostic.
// Callers that only care about hard violations gate on lint.Errors.
func Verify(c *Circuit) []lint.Diagnostic {
	return lint.RunTarget(&lint.Target{Netlist: c.Netlist, Bitstream: c.BS}, lint.Options{})
}

// MustCompile is Compile that panics on error, for tests and examples
// operating on library circuits known to route.
func MustCompile(nl *netlist.Netlist, opt Options) *Circuit {
	c, err := Compile(nl, opt)
	if err != nil {
		panic(err)
	}
	return c
}

// CompileStrip compiles nl into a full-height column strip of the given
// row count, routed at tracks per channel, growing the width until the
// design routes. Column strips are the allocation unit of the VFPGA
// managers: partitioning, overlaying and garbage collection all deal in
// contiguous column ranges, the direct analogue of the paper's
// memory-style partitions.
func CompileStrip(nl *netlist.Netlist, rows, tracks int, opt Options) (*Circuit, error) {
	f := flows.take()
	defer flows.give(f)
	return f.compileStrip(nl, rows, tracks, opt)
}

// compileStrip is CompileStrip in flow f.
func (f *flow) compileStrip(nl *netlist.Netlist, rows, tracks int, opt Options) (*Circuit, error) {
	m, err := f.frontEnd(nl, opt)
	if err != nil {
		return nil, err
	}
	cells := m.NumCells()
	minW := (cells + cells/8 + rows - 1) / rows
	if minW < 1 {
		minW = 1
	}
	var lastErr error
	for w := minW; w <= minW+8; w++ {
		c, err := f.backEnd(nl, m, w, rows, tracks, opt)
		if err == nil {
			return c, nil
		}
		lastErr = err
	}
	return nil, fmt.Errorf("compile %s as %d-row strip: %w", nl.Name, rows, lastErr)
}
