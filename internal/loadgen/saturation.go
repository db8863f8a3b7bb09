package loadgen

import (
	"fmt"

	"repro/internal/workload"
)

// CurvePoint is one offered-load step of a throughput curve: the model
// replayed at one speedup.
type CurvePoint struct {
	Speedup        float64 `json:"speedup"`
	OfferedPerSec  float64 `json:"offered_per_sec"`
	AchievedPerSec float64 `json:"achieved_per_sec"`
	P50Ns          int64   `json:"p50_ns"`
	P95Ns          int64   `json:"p95_ns"`
	P99Ns          int64   `json:"p99_ns"`
	Throttled      int     `json:"throttled"`
	SLOMet         bool    `json:"slo_met"`
}

func pointAt(tr *workload.Trace, outcomes []workload.Outcome, cfg ModelConfig, slo SLO) (CurvePoint, error) {
	res, err := Replay(tr, outcomes, cfg)
	if err != nil {
		return CurvePoint{}, err
	}
	s := &res.Summary
	return CurvePoint{
		Speedup:        cfg.Speedup,
		OfferedPerSec:  s.OfferedPerSec,
		AchievedPerSec: s.AchievedPerSec,
		P50Ns:          s.P50Ns,
		P95Ns:          s.P95Ns,
		P99Ns:          s.P99Ns,
		Throttled:      s.Throttled,
		SLOMet:         slo.Met(s),
	}, nil
}

// Curve replays the trace at each speedup in order and returns one point
// per step: the offered-vs-achieved throughput curve with its latency
// quantiles. Execution happens once (outcomes are reused); each point is
// a pure model replay.
func Curve(tr *workload.Trace, outcomes []workload.Outcome, base ModelConfig, speedups []float64, slo SLO) ([]CurvePoint, error) {
	if len(speedups) == 0 {
		return nil, fmt.Errorf("loadgen: curve needs at least one speedup")
	}
	pts := make([]CurvePoint, 0, len(speedups))
	for _, sp := range speedups {
		cfg := base
		cfg.Speedup = sp
		pt, err := pointAt(tr, outcomes, cfg, slo)
		if err != nil {
			return nil, err
		}
		pts = append(pts, pt)
	}
	return pts, nil
}

// SaturationPoint is the outcome of a saturation search: the highest
// offered load (speedup) at which the SLO still held.
type SaturationPoint struct {
	SLO string `json:"slo"`
	// Met is false when even the lowest probed speedup violated the SLO;
	// the point fields then describe that lowest probe.
	Met bool `json:"met"`
	// Saturated is false when the highest probed speedup still met the
	// SLO — the search never found the wall inside [lo, hi].
	Saturated bool       `json:"saturated"`
	Point     CurvePoint `json:"point"`
}

// Saturate binary-searches speedup in [lo, hi] for the highest offered
// load whose replay still meets the SLO. iters halvings bound the work;
// the search is over a deterministic model, so the result is exact to
// the final interval width and reproducible.
func Saturate(tr *workload.Trace, outcomes []workload.Outcome, base ModelConfig, slo SLO, lo, hi float64, iters int) (SaturationPoint, error) {
	if !(lo > 0) || hi < lo || iters <= 0 {
		return SaturationPoint{}, fmt.Errorf("loadgen: saturation search needs 0 < lo <= hi and iters > 0")
	}
	at := func(sp float64) (CurvePoint, error) {
		cfg := base
		cfg.Speedup = sp
		return pointAt(tr, outcomes, cfg, slo)
	}
	loPt, err := at(lo)
	if err != nil {
		return SaturationPoint{}, err
	}
	if !loPt.SLOMet {
		return SaturationPoint{SLO: slo.String(), Met: false, Saturated: true, Point: loPt}, nil
	}
	hiPt, err := at(hi)
	if err != nil {
		return SaturationPoint{}, err
	}
	if hiPt.SLOMet {
		return SaturationPoint{SLO: slo.String(), Met: true, Saturated: false, Point: hiPt}, nil
	}
	best := loPt
	for i := 0; i < iters; i++ {
		mid := (lo + hi) / 2
		pt, err := at(mid)
		if err != nil {
			return SaturationPoint{}, err
		}
		if pt.SLOMet {
			best, lo = pt, mid
		} else {
			hi = mid
		}
	}
	return SaturationPoint{SLO: slo.String(), Met: true, Saturated: true, Point: best}, nil
}
