package bench

import (
	"time"

	"repro/internal/flat"
	"repro/internal/trace"
)

// Outcome is one experiment's result from a harness run: its table (or
// error) plus the wall-clock time the runner spent on it.
type Outcome struct {
	Exp   Experiment
	Table *trace.Table
	Err   error
	Wall  time.Duration
}

// Run executes the experiments under cfg, fanning whole experiments out
// across up to cfg.Jobs goroutines (flat.Map), and returns the outcomes
// in input (presentation) order regardless of completion order. Each
// experiment additionally fans its own independent sweep points out with
// the same bound, so a single big experiment also scales with cores. An
// experiment that panics does so on Run's caller, once the others have
// returned.
//
// Tables are byte-identical for every Jobs value and whatever ran
// before in the process. Experiments share two things, both behind a
// mutex: the compile cache, keyed by every input that affects its
// output, and the free lists of dead stacks and of F10's replay states,
// which a sweep point takes one from and gives it back to once its
// numbers are read. A renewed stack or state runs as a new one does, and
// a sweep point owns it and its RNG streams while it runs. The netlists
// no seed changes are built once and shared read-only.
func Run(cfg Config, exps []Experiment) []Outcome {
	out, _ := flat.Map(len(exps), cfg.Jobs, func(i int) (Outcome, error) {
		// Wall timing comes only from the injected clock: the harness
		// itself stays off the wall clock so its tables are a pure
		// function of Config (the simclock analyzer pins this).
		var start time.Time
		if cfg.Now != nil {
			start = cfg.Now()
		}
		tbl, err := exps[i].Run(cfg)
		o := Outcome{Exp: exps[i], Table: tbl, Err: err}
		if cfg.Now != nil {
			o.Wall = cfg.Now().Sub(start)
		}
		return o, nil
	})
	return out
}

// PerfExperiment is one experiment's wall time in a harness run.
type PerfExperiment struct {
	ID     string
	WallMS float64
}

// PerfRecord summarizes the wall clock of one harness run: each
// experiment's time, their sum (what -jobs 1 would roughly cost) and the
// speedup the fan-out bought over that serial estimate on this machine.
type PerfRecord struct {
	SerialEstMS float64
	Speedup     float64
	Experiments []PerfExperiment
}

// NewPerfRecord summarizes a finished harness run; wall is the elapsed
// time of the whole run. The Config is not read: the parameter keeps the
// signature the repo benchmark (benchmark/harness.go) calls.
func NewPerfRecord(_ Config, outcomes []Outcome, wall time.Duration) *PerfRecord {
	r := &PerfRecord{}
	for _, o := range outcomes {
		pe := PerfExperiment{ID: o.Exp.ID, WallMS: float64(o.Wall) / float64(time.Millisecond)}
		r.SerialEstMS += pe.WallMS
		r.Experiments = append(r.Experiments, pe)
	}
	if wall > 0 {
		r.Speedup = r.SerialEstMS / (float64(wall) / float64(time.Millisecond))
	}
	return r
}
