package serve_test

// The live pool and the model of it agree: fleet.Simulate places a job on
// a board by the rule serve.Pool picks by, so one stream through both
// lands every job on the same board.

import (
	"testing"

	"repro/internal/fleet"
	"repro/internal/rng"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/workload"
)

// TestPoolAndSimulateAgree feeds one job stream to a live pool of three
// boards and to a one-node fleet.Simulate with the same service times,
// and requires every job on the same board on both sides, in the two
// regimes a pool whose workers never start holds still in: every arrival
// before the first completion, and every board having completed each
// scenario once before the stream. The pool gets that history through
// NoteCompleted; the model runs it, one job of each scenario per board,
// ahead of the stream. Nothing sleeps and nothing runs on the pool, so
// the result is the same on every run.
func TestPoolAndSimulateAgree(t *testing.T) {
	const boards, streamJobs = 3, 40
	scens := workload.Scenarios()
	// took is what board b takes for a job of scenario s: boards differ,
	// so the rule has choices to make.
	took := func(b, s int) sim.Time {
		return sim.Time(10+7*s+5*((3*b+s)%4)) * sim.Millisecond
	}
	src := rng.New(7)
	stream := make([]int, streamJobs) // scenario per job
	for i := range stream {
		stream[i] = src.Intn(len(scens))
	}

	// live places the stream on a pool whose workers never start, after
	// noting one completion of each scenario per board when warm.
	live := func(warm bool) []int {
		cfgs := make([]serve.BoardConfig, boards)
		for b := range cfgs {
			cfgs[b] = serve.DefaultBoardConfig()
			cfgs[b].QueueDepth = streamJobs
		}
		p, err := serve.NewPool(cfgs, serve.PoolOptions{})
		if err != nil {
			t.Fatal(err)
		}
		defer p.Drain()
		if warm {
			for s := range scens {
				for b := 0; b < boards; b++ {
					p.NoteCompleted(b, s, int64(took(b, s)))
				}
			}
		}
		got := make([]int, len(stream))
		for i, s := range stream {
			spec, err := workload.BuiltinSpec(scens[s])
			if err != nil {
				t.Fatal(err)
			}
			j, err := p.Submit(serve.SubmitArgs{Tenant: "t", Spec: &spec})
			if err != nil {
				t.Fatal(err)
			}
			got[i] = j.Status().Board
		}
		return got
	}

	// model runs the stream through Simulate one nanosecond apart, after
	// a warm-up of one batch per scenario when warm: a job for every
	// board at once, each batch done before the next. Every service time
	// is milliseconds, so the stream all arrives before its first
	// completion.
	model := func(warm bool) []int {
		var jobs []fleet.SimJob
		at := sim.Time(0)
		if warm {
			for s := range scens {
				for b := 0; b < boards; b++ {
					jobs = append(jobs, fleet.SimJob{Arrival: at, Duration: took(b, s), Width: 1, Class: int32(s)})
				}
				at += sim.Second
			}
		}
		warmup := len(jobs)
		for i, s := range stream {
			jobs = append(jobs, fleet.SimJob{Arrival: at + sim.Time(i), Duration: took(0, s), Width: 1, Class: int32(s)})
		}
		policy, err := fleet.NewPolicy("firstfit", 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := fleet.Simulate(fleet.Shape{Nodes: 1, BoardsPerNode: boards, Cols: 1, FailNode: -1}, policy, jobs); err != nil {
			t.Fatal(err)
		}
		for k := 0; k < warmup; k++ {
			if j := jobs[k]; int(j.Board) != k%boards || !j.Finished || j.Start+j.Duration > at {
				t.Fatalf("warm-up job %d: board %d finished %v at %d, want board %d done by %d", k, j.Board, j.Finished, j.Start+j.Duration, k%boards, at)
			}
		}
		got := make([]int, len(stream))
		last := jobs[len(jobs)-1].Arrival
		for i := range stream {
			j := jobs[warmup+i]
			if end := j.Start + j.Duration; end <= last {
				t.Fatalf("stream job %d finishes at %d, before the last arrival at %d", i, end, last)
			}
			got[i] = int(j.Board)
		}
		return got
	}

	var cold []int
	for _, warm := range []bool{false, true} {
		pool, modeled := live(warm), model(warm)
		for i := range stream {
			if pool[i] != modeled[i] {
				t.Fatalf("warm=%v: job %d (%s) on board %d live, board %d in the model\nlive  %v\nmodel %v",
					warm, i, scens[stream[i]], pool[i], modeled[i], pool, modeled)
			}
		}
		if !warm {
			cold = pool
			continue
		}
		// The estimates must have decided something: a history that
		// changed no placement would check only the load tie-break twice.
		moved := 0
		for i := range stream {
			if pool[i] != cold[i] {
				moved++
			}
		}
		if moved == 0 {
			t.Fatalf("the history moved no job: %v", pool)
		}
	}
}
