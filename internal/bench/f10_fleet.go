package bench

import (
	"fmt"

	"repro/internal/fleet"
	"repro/internal/netlist"
	"repro/internal/sim"
	"repro/internal/trace"
)

// F10 — the fleet-scale bake-off: the same 12k-job churn mix replayed
// through each placement policy over a virtual rack. Placement is
// strip packing with delays one level above the boards: every job is a
// rectangle whose width is its widest real compiled strip on the bench
// geometry and whose height is a modeled service time, and the policy
// decides when a job can start and finish by choosing its node.
// FleetBakeoffConfig is the scenario for fleet.RunBakeoff, whose boards
// run one job at a time and are picked by the daemon's own rule; the
// table still prints the column-packing model of columnBakeoff until the
// harness benchmark's golden tables are regenerated. Either replay is
// pure virtual time, so the rows measure routing quality alone —
// identical arrivals, identical rectangles, identical mid-run node
// failure. columnBakeoff replays on states from the replays free list;
// when the table moves to fleet.RunBakeoff (ROADMAP item 5(a)), the list
// moves with it, to RunBakeoff's caller here.

type fleetClass struct {
	nl     *netlist.Netlist
	evals  int64
	weight int
}

// fleetClassPool is the churn mix: frequent short narrow strips, a mid
// band, and rare long wide multipliers. Service time models evaluation
// work at the simulated 100 MHz fabric clock (evals × 10 ns).
func fleetClassPool() []fleetClass {
	return []fleetClass{
		{netlist.MustLookup("parity16"), 40_000, 5},
		{netlist.MustLookup("adder8"), 60_000, 3},
		{netlist.MustLookup("alu8"), 80_000, 2},
		{mul6(), 120_000, 2}, // not a library circuit
		{netlist.MustLookup("mul8"), 160_000, 1},
	}
}

// FleetBakeoffConfig builds the F10 scenario: class widths come from
// real strip compiles on the bench geometry, the arrival rate is tuned
// for ~90% offered load on the healthy fleet's boards, and one node fails
// about 40% through the expected arrival span so every policy absorbs
// the same casualty.
func FleetBakeoffConfig(cfg Config) (fleet.BakeoffConfig, error) {
	jobs := 12_000
	if cfg.Quick {
		jobs = 1_500
	}
	bcfg := fleet.BakeoffConfig{
		Nodes: 4, BoardsPerNode: 2, Cols: 12,
		Jobs: jobs, Seed: cfg.Seed,
		FailNode: 1,
	}
	classes := fleetClassPool()
	nls := make([]*netlist.Netlist, len(classes))
	for i, cl := range classes {
		nls[i] = cl.nl
	}
	circs, err := compileSet(defaultOpt(cfg), nls)
	if err != nil {
		return fleet.BakeoffConfig{}, fmt.Errorf("F10: %w", err)
	}
	var meanDur float64
	var totalWeight int
	for i, cl := range classes {
		w, _ := circs[i].Footprint()
		dur := sim.Time(cl.evals) * 10 * sim.Nanosecond
		bcfg.Classes = append(bcfg.Classes, fleet.JobClass{
			Name: cl.nl.Name, Width: w, Duration: dur, Weight: cl.weight,
		})
		meanDur += float64(dur) * float64(cl.weight)
		totalWeight += cl.weight
	}
	meanDur /= float64(totalWeight)
	// Offered load ~0.9: a board runs one job at a time, so the mean
	// inter-arrival is E[duration] over 90% of the fleet's boards. High
	// enough that a policy's choices show up in queue delay, low enough
	// to stay stable.
	boards := float64(bcfg.Nodes * bcfg.BoardsPerNode)
	bcfg.MeanInterval = sim.Time(meanDur / (0.9 * boards))
	// The casualty lands ~40% through the arrival span: enough history
	// to have packed the failed node, enough future to measure recovery.
	bcfg.FailAt = sim.Time(jobs) * bcfg.MeanInterval * 4 / 10
	return bcfg, nil
}

// F10PlacementBakeoff — fleet placement policies under identical churn,
// replayed by columnBakeoff: when jobs start (admission delay) and when
// the stream finishes (makespan, and utilization with it) per policy,
// beside displacement counts. TestF10Shape holds the claims.
func F10PlacementBakeoff(cfg Config) (*trace.Table, error) {
	tbl := &trace.Table{
		ID:      "F10",
		Title:   "Fleet placement-policy bake-off under churn with a node casualty",
		Note:    "same arrivals, rectangles and mid-run node failure per policy; only routing differs",
		Columns: []string{"policy", "jobs", "completed", "hw_util", "p50_admit_ms", "p99_admit_ms", "requeues", "mean_score", "makespan_ms"},
	}
	bcfg, err := FleetBakeoffConfig(cfg)
	if err != nil {
		return nil, err
	}
	policies := fleet.PolicyNames
	return fillRows(tbl, cfg.Jobs, len(policies), func(i int) ([]any, error) {
		return f10Row(columnBakeoff(bcfg, policies[i])), nil
	})
}

// f10Row is one policy's row of the F10 table.
func f10Row(row fleet.BakeoffRow) []any {
	return []any{row.Policy, row.Jobs, row.Completed, row.HWUtil,
		row.P50AdmitMS, row.P99AdmitMS, row.Requeues, row.MeanScore, row.MakespanMS}
}
