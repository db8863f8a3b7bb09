package bench

import (
	"fmt"

	"repro/internal/baseline"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

// F9AmorphousRegions — §4 refined: fixed-boundary variable partitions
// vs amorphous flexible-boundary regions on the same fragmenting churn.
// The amorphous manager slides neighbors instead of splitting and
// merging slots, and keeps exited strips resident as an adoption cache,
// so a recurring circuit reattaches at zero configuration cost. The row
// pair records the before/after of the tentpole: sustained utilization
// and tail admission (block) latency under identical load.
func F9AmorphousRegions(cfg Config) (*trace.Table, error) {
	tbl := &trace.Table{
		ID:      "F9",
		Title:   "Amorphous regions vs variable partitions under churn",
		Note:    "flexible boundaries slide instead of split/merge; exited strips stay cached for adoption",
		Columns: []string{"manager", "mean_frag", "max_frag", "util_mean_clbs", "hw_util", "blocks", "p95_block_ms", "loads", "relocations", "makespan_ms"},
	}
	mkSet := churnSets(cfg) // F4's churn, so the comparison isolates the residency model
	managers := []string{"partition", "amorphous"}
	return fillRows(tbl, cfg.Jobs, len(managers), func(i int) ([]any, error) {
		row, err := runChurn(cfg, mkSet(), baseline.NewManager(managers[i]), func(st *baseline.Stack, frag *stats.Sample) []any {
			os := st.OS
			block := stats.NewSample(true)
			var hwTotal sim.Time
			for _, t := range os.Tasks() {
				block.Observe(float64(t.BlockWait))
				hwTotal += t.HWTime
			}
			// Sustained utilization: useful evaluation time delivered per
			// unit of makespan. The two runs execute the identical
			// workload, so whichever residency model finishes it in less
			// virtual time kept the device doing more useful work per
			// cycle. UtilMean cannot show this — it averages configured
			// CLBs over each run's own (different) makespan.
			hwUtil := float64(hwTotal) / float64(os.Makespan())
			snap := st.Engines[0].M.Snapshot(st.K.Now())
			return []any{managers[i], frag.Mean(), frag.Max(), snap.UtilMean, hwUtil,
				snap.Blocks, ms(sim.Time(block.Quantile(0.95))),
				snap.Loads, snap.Relocations, ms(os.Makespan())}
		})
		if err != nil {
			return nil, fmt.Errorf("F9 %s: %w", managers[i], err)
		}
		return row, nil
	})
}
