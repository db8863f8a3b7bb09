package main

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/compile"
	"repro/internal/fleet"
	"repro/internal/serve"
)

const (
	fleetRate       = 250.0 // mean arrivals per second: about a sixth of what the two cores can serve
	fleetTick       = 10 * time.Millisecond
	fleetQueueDepth = 64
	fleetPolicy     = "packing"
)

// fleetNodes is the fleet's shape: two nodes of two boards.
var fleetNodes = [][]string{{"dynamic", "partition"}, {"amorphous", "paged"}}

// fleetOpen is independent tenants: arrivals come on a schedule whether
// or not earlier ones have finished, through admission and the fleet
// scheduler's placement policy into per-board queues. Latency is timed
// from when a request was due, so a stall charges every request it
// delays.
type fleetOpen struct {
	o   runOpts
	chk *checker

	mix    *warmMix
	cache  *compile.StripCache
	adm    *serve.Admission
	nodes  []*fleet.Node
	sched  *fleet.Scheduler
	policy fleet.PlacementPolicy

	// Filled by drive for layers.
	lateUS []float64
	views  [][]fleet.NodeView
}

func newFleetOpen(o runOpts, chk *checker) driver { return &fleetOpen{o: o, chk: chk} }

func (f *fleetOpen) setUp() error {
	f.tearDown()
	mix, err := newWarmMix(f.o.seed)
	if err != nil {
		return err
	}
	f.mix = mix
	f.cache = compile.NewStripCache(compile.DefaultCacheCapacity)
	f.adm = serve.NewAdmission(unthrottled, nil)
	f.nodes = nil
	for id, mgrs := range fleetNodes {
		var cfgs []serve.BoardConfig
		for _, m := range mgrs {
			cfgs = append(cfgs, boardFor(m, fleetQueueDepth))
		}
		n, err := fleet.NewNode(id, cfgs, serve.PoolOptions{Outcomes: f.adm, Cache: f.cache})
		if err != nil {
			return err
		}
		f.nodes = append(f.nodes, n)
	}
	if f.policy, err = fleet.NewPolicy(fleetPolicy, f.o.seed); err != nil {
		return err
	}
	if f.sched, err = fleet.NewScheduler(f.nodes, f.policy, f.cache); err != nil {
		return err
	}
	f.sched.Start()
	// Every spec once on every board, pinned: compiles every circuit and
	// leaves every board warm.
	for n, mgrs := range fleetNodes {
		for b, mgr := range mgrs {
			for _, js := range mix.distinct() {
				node, board, spec := n, b, js.spec
				j, err := f.sched.Submit(fleet.Request{Tenant: "warmup", Spec: &spec, Node: &node, Board: &board})
				if err != nil {
					return err
				}
				<-j.Done()
				st := j.Status()
				if st.State != serve.StateDone || !f.chk.job(mgr, js.key, st.Result.LintClean, int64(st.Result.Makespan)) {
					return fmt.Errorf("warm-up job on %s failed: %s %v", mgr, st.Error, f.chk.failures())
				}
			}
		}
	}
	return nil
}

func (f *fleetOpen) tearDown() {
	if f.sched != nil {
		f.sched.Drain()
		f.sched = nil
	}
}

// clock is what the open loop reads time from; the tests drive it with a
// fake.
type clock interface {
	Now() time.Time
	Sleep(time.Duration)
}

type wallClock struct{}

func (wallClock) Now() time.Time        { return time.Now() }
func (wallClock) Sleep(d time.Duration) { time.Sleep(d) }

// openLoop sends every arrival of the schedule at its due time, never
// waiting for an earlier one to finish. send is called with the arrival,
// its due time and how late the generator got to it; what send starts
// must finish on its own goroutine.
func openLoop(clk clock, start time.Time, schedule []arrival, send func(a arrival, due time.Time, late time.Duration)) {
	for _, a := range schedule {
		due := start.Add(a.due)
		if wait := due.Sub(clk.Now()); wait > 0 {
			clk.Sleep(wait)
		}
		late := clk.Now().Sub(due)
		if late < 0 {
			late = 0
		}
		send(a, due, late)
	}
}

func (f *fleetOpen) drive(deadline time.Time, tr *tracer) *opLog {
	length := time.Until(deadline)
	if f.o.smoke {
		length = 200 * time.Millisecond
	}
	schedule := openSchedule(f.o.seed, fleetRate, length, fleetTick)
	log := &opLog{sloMS: f.o.sloMS, virt: virtAcc{window: len(schedule)}}
	f.lateUS = f.lateUS[:0]
	f.views = nil

	var mu sync.Mutex // guards log: completions land on their own goroutines
	var wg sync.WaitGroup
	fail := func(i int, lat time.Duration, format string, args ...any) {
		mu.Lock()
		log.add(lat, false)
		mu.Unlock()
		f.chk.fail("fleet_open arrival %d: "+format, append([]any{i}, args...)...)
	}
	openLoop(wallClock{}, time.Now(), schedule, func(a arrival, due time.Time, late time.Duration) {
		f.lateUS = append(f.lateUS, float64(late)/1e3)
		js := f.mix.at(a.job)
		// The root span is recorded at completion, from the due time;
		// its id is needed now for the children.
		req, rootID := tr.newID(), tr.newID()
		if tr != nil && a.job%64 == 0 && len(f.views) < 256 {
			// What the policy is shown, kept for the placement micro pass.
			views := make([]fleet.NodeView, len(f.nodes))
			for i, n := range f.nodes {
				views[i] = n.View()
			}
			f.views = append(f.views, views)
		}
		// Admission first, then the scheduler: what fleet.Server does.
		sp := tr.start("serve.admit", rootID, req)
		ok, _ := f.adm.Allow(tenantName(a.job))
		tr.end(sp)
		if !ok {
			fail(a.job, time.Since(due), "refused by admission")
			return
		}
		spec := js.spec
		sp = tr.start("fleet.submit", rootID, req)
		j, err := f.sched.Submit(fleet.Request{Tenant: tenantName(a.job), Spec: &spec})
		tr.end(sp)
		if err != nil {
			fail(a.job, time.Since(due), "refused by the scheduler: %v", err)
			return
		}
		submitted := time.Now()
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-j.Done()
			done := time.Now()
			st := j.Status()
			tr.record(tr.newID(), "fleet.wait", rootID, req, submitted, done)
			tr.record(rootID, "fleet.request", 0, req, due, done)
			if st.State != serve.StateDone || st.Result == nil {
				fail(a.job, done.Sub(due), "%s: %s", st.State, st.Error)
				return
			}
			mgr := fleetNodes[st.Node][st.Board]
			res := fromServe(st.Result)
			ok := f.chk.job(mgr, js.key, res.LintClean, res.Makespan)
			mu.Lock()
			log.add(done.Sub(due), ok)
			log.virt.addJob(a.job, res)
			mu.Unlock()
		}()
	})
	wg.Wait()
	return log
}

func (f *fleetOpen) layers(tr *tracer, m map[string]metric) error {
	m["serve.admit_ns"] = tr.p50("serve.admit", 1, "ns")
	m["fleet.submit_us"] = tr.p50("fleet.submit", 1e3, "us")
	m["fleet.wait_us"] = tr.p50("fleet.wait", 1e3, "us")

	late := sortedCopy(f.lateUS)
	m["gen.late_p50_us"] = metric{Value: quantile(late, 0.5), Unit: "us", N: int64(len(late))}
	m["gen.late_p99_us"] = metric{Value: quantile(late, 0.99), Unit: "us", N: int64(len(late))}

	routed := f.sched.Routed()
	var total, most int64
	for _, r := range routed {
		total += r
		most = max(most, r)
	}
	if total > 0 {
		m["fleet.route_imbalance"] = metric{Value: float64(most) * float64(len(routed)) / float64(total), Unit: "ratio", N: total}
	}
	m["fleet.reroutes"] = metric{Value: float64(f.sched.RerouteCount()), Unit: "count"}

	// The policy alone, on the node views captured while the fleet was
	// under load.
	if len(f.views) > 0 {
		bc := boardFor("dynamic", fleetQueueDepth)
		var widths []int
		for _, js := range f.mix.distinct() {
			w, err := serve.SpecWidth(f.cache, bc, &js.spec)
			if err != nil {
				return err
			}
			widths = append(widths, w)
		}
		reps := 500
		if f.o.smoke {
			reps = 5
		}
		// A Place call is shorter than reading the clock twice, so each
		// sample times a batch.
		const batch = 64
		k := 0
		m["fleet.policy_place_ns"] = p50Of(timeCalls(reps, batch, func() {
			for b := 0; b < batch; b++ {
				f.policy.Place(fleet.JobView{Width: widths[k%len(widths)], Tenant: "t"}, f.views[k%len(f.views)])
				k++
			}
		}), "ns")
	}

	cacheMetrics(m, f.cache.Stats())
	return nil
}
