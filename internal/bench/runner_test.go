package bench

import (
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/trace"
)

// renderAll renders every outcome's table in presentation order, exactly
// as cmd/vfpgabench prints them.
func renderAll(t *testing.T, outs []Outcome) string {
	t.Helper()
	var b strings.Builder
	for _, o := range outs {
		if o.Err != nil {
			t.Fatalf("%s: %v", o.Exp.ID, o.Err)
		}
		b.WriteString(o.Table.String())
	}
	return b.String()
}

// TestParallelHarnessByteIdentical is the determinism regression test for
// the parallel experiment engine: the full quick harness must render
// byte-identical tables at -jobs 1 and -jobs 8. Run under -race by `make
// check`, this also exercises the compile cache's singleflight path under
// real contention.
func TestParallelHarnessByteIdentical(t *testing.T) {
	serial := Run(Config{Seed: 1, Quick: true, Jobs: 1}, All())
	parallel := Run(Config{Seed: 1, Quick: true, Jobs: 8}, All())
	a, b := renderAll(t, serial), renderAll(t, parallel)
	if a != b {
		i := 0
		for i < len(a) && i < len(b) && a[i] == b[i] {
			i++
		}
		lo := i - 80
		if lo < 0 {
			lo = 0
		}
		t.Fatalf("-jobs 1 and -jobs 8 tables differ near byte %d:\nserial:   ...%q\nparallel: ...%q",
			i, a[lo:min(i+80, len(a))], b[lo:min(i+80, len(b))])
	}
}

func TestRunPreservesOrderAndErrors(t *testing.T) {
	errBoom := errors.New("boom")
	exps := []Experiment{
		{ID: "ok1", Run: func(Config) (*trace.Table, error) {
			return &trace.Table{ID: "ok1"}, nil
		}},
		{ID: "bad", Run: func(Config) (*trace.Table, error) {
			return nil, errBoom
		}},
		{ID: "ok2", Run: func(Config) (*trace.Table, error) {
			return &trace.Table{ID: "ok2"}, nil
		}},
	}
	for _, jobs := range []int{1, 4} {
		outs := Run(Config{Jobs: jobs}, exps)
		if len(outs) != 3 {
			t.Fatalf("jobs=%d: %d outcomes", jobs, len(outs))
		}
		for i, o := range outs {
			if o.Exp.ID != exps[i].ID {
				t.Fatalf("jobs=%d: outcome %d is %s, want %s", jobs, i, o.Exp.ID, exps[i].ID)
			}
		}
		if outs[0].Err != nil || outs[2].Err != nil {
			t.Fatalf("jobs=%d: unexpected errors %v %v", jobs, outs[0].Err, outs[2].Err)
		}
		if !errors.Is(outs[1].Err, errBoom) {
			t.Fatalf("jobs=%d: want boom, got %v", jobs, outs[1].Err)
		}
	}
}

func TestPerfRecordShape(t *testing.T) {
	var ticks int64
	fake := func() time.Time { ticks++; return time.Unix(0, ticks*int64(time.Millisecond)) }
	cfg := Config{Seed: 1, Quick: true, Jobs: 1, Now: fake}
	exps := []Experiment{
		{ID: "T2", Run: T2StatePreemption},
		{ID: "T5", Run: T5IOMux},
	}
	outs := Run(cfg, exps)
	rec := NewPerfRecord(cfg, outs, time.Millisecond)
	if len(rec.Experiments) != 2 || rec.Experiments[0].ID != "T2" || rec.Experiments[1].ID != "T5" {
		t.Fatalf("experiments wrong: %+v", rec.Experiments)
	}
	if rec.Experiments[0].WallMS != 1 || rec.SerialEstMS != 2 || rec.Speedup != 2 {
		t.Fatalf("two 1 ms experiments in a 1 ms run: %+v", rec)
	}
}

// Wall timing comes only from the injected clock: without one the
// harness never reads the wall clock and Wall stays zero; with one it
// measures. (The simclock analyzer keeps time.Now out of this package.)
func TestRunWallUsesInjectedClock(t *testing.T) {
	exps := []Experiment{{ID: "ok", Run: func(Config) (*trace.Table, error) {
		return &trace.Table{ID: "ok"}, nil
	}}}
	outs := Run(Config{Jobs: 1}, exps)
	if outs[0].Wall != 0 {
		t.Fatalf("Wall without a clock = %v, want 0", outs[0].Wall)
	}
	var ticks int64
	fake := func() time.Time { ticks++; return time.Unix(0, ticks*int64(time.Millisecond)) }
	outs = Run(Config{Jobs: 1, Now: fake}, exps)
	if outs[0].Wall != time.Millisecond {
		t.Fatalf("Wall with a fake clock = %v, want 1ms", outs[0].Wall)
	}
}
