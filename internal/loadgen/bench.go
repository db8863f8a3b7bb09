package loadgen

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/workload"
)

// DefaultCurveSpeedups is the sweep behind the bench record's (and
// vfpgaload -trace's) throughput curve.
var DefaultCurveSpeedups = []float64{0.25, 0.5, 1, 2, 4, 8, 16, 32}

// Default saturation search bounds: speedup 1/4x..64x of the recorded
// trace, 20 halvings (final interval < 0.01% of the range).
const (
	SaturateLo    = 0.25
	SaturateHi    = 64
	SaturateIters = 20
)

// DefaultBenchConfig is the recipe behind both the committed golden
// trace and vfpgabench's load section: Poisson arrivals, 60 jobs at a
// 100ms mean interval, all five scenario families spread over three
// tenants. With DefaultBenchServers boards and the measured mean
// service time (~189ms virtual), baseline utilization sits near 0.5 —
// comfortably inside DefaultBenchSLO, which the saturation search then
// pushes to the wall.
func DefaultBenchConfig() GenConfig {
	return GenConfig{
		Arrival:      ArrivalPoisson,
		Jobs:         60,
		MeanInterval: 100 * sim.Millisecond,
		Seed:         1234,
		Mix:          DefaultMix(3),
	}
}

// Defaults paired with DefaultBenchConfig.
const (
	DefaultBenchServers = 4
	DefaultBenchSLO     = "p99<750ms"
)

// BenchRecord is the committed load record
// (testdata/golden_summary.json): the generator recipe, the baseline
// replay at recorded speed, the throughput curve, and the saturation
// point under the declared SLO.
type BenchRecord struct {
	Gen        GenConfig       `json:"gen"`
	SLO        string          `json:"slo"`
	Baseline   ReplaySummary   `json:"baseline"`
	Curve      []CurvePoint    `json:"curve"`
	Saturation SaturationPoint `json:"saturation"`
}

// RunBench generates a trace from cfg, executes it once through run,
// then replays the model at speedup 1 (baseline), across the default
// curve, and through the saturation search. Deterministic end to end:
// the only non-model input is run's measured virtual makespans, which
// are themselves pure per spec.
func RunBench(cfg GenConfig, servers int, sloSpec string, run workload.RunFunc) (*BenchRecord, error) {
	slo, err := ParseSLO(sloSpec)
	if err != nil {
		return nil, err
	}
	tr, err := Generate(cfg)
	if err != nil {
		return nil, err
	}
	outcomes, err := Execute(tr, run)
	if err != nil {
		return nil, err
	}
	base := ModelConfig{Servers: servers, Speedup: 1}
	res, err := Replay(tr, outcomes, base)
	if err != nil {
		return nil, err
	}
	curve, err := Curve(tr, outcomes, base, DefaultCurveSpeedups, slo)
	if err != nil {
		return nil, err
	}
	sat, err := Saturate(tr, outcomes, base, slo, SaturateLo, SaturateHi, SaturateIters)
	if err != nil {
		return nil, fmt.Errorf("loadgen: saturation search: %w", err)
	}
	return &BenchRecord{
		Gen:        cfg,
		SLO:        sloSpec,
		Baseline:   res.Summary,
		Curve:      curve,
		Saturation: sat,
	}, nil
}
