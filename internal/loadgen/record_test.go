package loadgen_test

import (
	"fmt"

	"repro/internal/loadgen"
	"repro/internal/sim"
	"repro/internal/workload"
)

// benchConfig is the recipe behind the committed golden trace and load
// record: Poisson arrivals, 60 jobs at a 100ms mean interval, all five
// scenario families spread over three tenants. With benchServers boards
// and the measured mean service time (~189ms virtual), baseline
// utilization sits near 0.5 — comfortably inside benchSLO, which the
// saturation search then pushes to the wall.
func benchConfig() loadgen.GenConfig {
	return loadgen.GenConfig{
		Arrival:      loadgen.ArrivalPoisson,
		Jobs:         60,
		MeanInterval: 100 * sim.Millisecond,
		Seed:         1234,
		Mix:          loadgen.DefaultMix(3),
	}
}

// Defaults paired with benchConfig.
const (
	benchServers = 4
	benchSLO     = "p99<750ms"
)

// benchRecord is the committed load record
// (testdata/golden_summary.json): the generator recipe, the baseline
// replay at recorded speed, the throughput curve, and the saturation
// point under the declared SLO.
type benchRecord struct {
	Gen        loadgen.GenConfig       `json:"gen"`
	SLO        string                  `json:"slo"`
	Baseline   loadgen.ReplaySummary   `json:"baseline"`
	Curve      []loadgen.CurvePoint    `json:"curve"`
	Saturation loadgen.SaturationPoint `json:"saturation"`
}

// execute runs every trace entry through run, in entry order, and
// returns the per-entry outcomes the model consumes. A runner that
// memoizes by spec (serve.NewDirectRunner) makes this cheap for traces
// with repeated specs.
func execute(tr *workload.Trace, run workload.RunFunc) ([]workload.Outcome, error) {
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	out := make([]workload.Outcome, len(tr.Entries))
	for i := range tr.Entries {
		e := &tr.Entries[i]
		o, err := run(e.Tenant, &e.Spec)
		if err != nil {
			return nil, fmt.Errorf("loadgen: entry %d (%s/%s): %w", i, e.Tenant, e.Spec.Scenario, err)
		}
		out[i] = o
	}
	return out, nil
}

// runBench generates a trace from cfg, executes it once through run,
// then replays the model at speedup 1 (baseline), across the default
// curve, and through the saturation search. Deterministic end to end:
// the only non-model input is run's measured virtual makespans, which
// are themselves pure per spec.
func runBench(cfg loadgen.GenConfig, servers int, sloSpec string, run workload.RunFunc) (*benchRecord, error) {
	slo, err := loadgen.ParseSLO(sloSpec)
	if err != nil {
		return nil, err
	}
	tr, err := loadgen.Generate(cfg)
	if err != nil {
		return nil, err
	}
	outcomes, err := execute(tr, run)
	if err != nil {
		return nil, err
	}
	base := loadgen.ModelConfig{Servers: servers, Speedup: 1}
	res, err := loadgen.Replay(tr, outcomes, base)
	if err != nil {
		return nil, err
	}
	curve, err := loadgen.Curve(tr, outcomes, base, loadgen.DefaultCurveSpeedups, slo)
	if err != nil {
		return nil, err
	}
	sat, err := loadgen.Saturate(tr, outcomes, base, slo, loadgen.SaturateLo, loadgen.SaturateHi, loadgen.SaturateIters)
	if err != nil {
		return nil, fmt.Errorf("loadgen: saturation search: %w", err)
	}
	return &benchRecord{
		Gen:        cfg,
		SLO:        sloSpec,
		Baseline:   res.Summary,
		Curve:      curve,
		Saturation: sat,
	}, nil
}
