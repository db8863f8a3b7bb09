package fleet

import (
	"fmt"

	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/stats"
)

// The policy bake-off (F10's scenario): a Poisson stream over a weighted class mix,
// drawn once from the config and run through Simulate under each policy,
// so the only difference between rows is the routing decision. A job's
// class is its index in Classes: each simulated board estimates a class
// by the jobs of it that board completed, as a live board estimates a
// scenario.

// JobClass is one rectangle shape in the churn mix.
type JobClass struct {
	Name     string   `json:"name"`
	Width    int      `json:"width_cols"`
	Duration sim.Time `json:"duration_ns"`
	Weight   int      `json:"weight"`
}

// BakeoffConfig parameterizes one replay.
type BakeoffConfig struct {
	Nodes         int        `json:"nodes"`
	BoardsPerNode int        `json:"boards_per_node"`
	Cols          int        `json:"cols"`
	Jobs          int        `json:"jobs"`
	Seed          uint64     `json:"seed"`
	MeanInterval  sim.Time   `json:"mean_interval_ns"` // mean job inter-arrival time
	Classes       []JobClass `json:"classes"`
	// FailNode, when >= 0, fails that node at FailAt: its queued and
	// running jobs displace and re-route, and it accepts nothing after.
	FailNode int      `json:"fail_node"`
	FailAt   sim.Time `json:"fail_at_ns"`
}

func (c BakeoffConfig) shape() Shape {
	return Shape{
		Nodes: c.Nodes, BoardsPerNode: c.BoardsPerNode, Cols: c.Cols,
		FailNode: c.FailNode, FailAt: c.FailAt,
	}
}

func (c BakeoffConfig) validate() error {
	if err := c.shape().validate(); err != nil {
		return err
	}
	if c.Jobs <= 0 {
		return fmt.Errorf("fleet: bakeoff needs jobs > 0")
	}
	if c.MeanInterval <= 0 {
		return fmt.Errorf("fleet: bakeoff needs a positive mean arrival interval")
	}
	if len(c.Classes) == 0 {
		return fmt.Errorf("fleet: bakeoff needs at least one job class")
	}
	for _, cl := range c.Classes {
		if cl.Width <= 0 || cl.Width > c.Cols {
			return fmt.Errorf("fleet: class %q width %d outside (0, %d]", cl.Name, cl.Width, c.Cols)
		}
		if cl.Duration <= 0 || cl.Weight <= 0 {
			return fmt.Errorf("fleet: class %q needs positive duration and weight", cl.Name)
		}
	}
	return nil
}

// BakeoffRow is one policy's outcome over the replay.
type BakeoffRow struct {
	Policy string `json:"policy"`
	Jobs   int    `json:"jobs"`
	// Completed counts jobs that finished; with one failed node out of
	// several it equals Jobs (every displaced job re-routes).
	Completed int `json:"completed"`
	// HWUtil is sustained hardware utilization: the board-time finished
	// jobs ran over the provisioned board-time (all boards × makespan).
	HWUtil float64 `json:"hw_util"`
	// Admission delay: arrival → final start (virtual ms).
	P50AdmitMS float64 `json:"p50_admit_ms"`
	P99AdmitMS float64 `json:"p99_admit_ms"`
	// Requeues counts jobs displaced by the node failure.
	Requeues int64 `json:"requeues"`
	// MeanScore is the mean placement score the policy assigned.
	MeanScore  float64 `json:"mean_score"`
	MakespanMS float64 `json:"makespan_ms"`
}

// RunBakeoff replays the configured job stream against one policy and
// returns its row. The arrival stream is a pure function of the config,
// so every policy sees byte-identical inputs.
func RunBakeoff(cfg BakeoffConfig, policyName string) (BakeoffRow, error) {
	if err := cfg.validate(); err != nil {
		return BakeoffRow{}, err
	}
	policy, err := NewPolicy(policyName, cfg.Seed)
	if err != nil {
		return BakeoffRow{}, err
	}

	src := rng.New(cfg.Seed)
	totalWeight := 0
	for _, cl := range cfg.Classes {
		totalWeight += cl.Weight
	}
	jobs := make([]SimJob, cfg.Jobs)
	t := sim.Time(0)
	for i := range jobs {
		t += sim.Time(src.ExpFloat64() * float64(cfg.MeanInterval))
		pick := src.Intn(totalWeight)
		ci := 0
		for ; ci < len(cfg.Classes)-1 && pick >= cfg.Classes[ci].Weight; ci++ {
			pick -= cfg.Classes[ci].Weight
		}
		cl := &cfg.Classes[ci]
		jobs[i] = SimJob{Arrival: t, Duration: cl.Duration, Width: int32(cl.Width), Class: int32(ci)}
	}

	tot, err := Simulate(cfg.shape(), policy, jobs)
	if err != nil {
		return BakeoffRow{}, err
	}

	waits := stats.NewSample(true)
	waits.Reserve(cfg.Jobs)
	busy := int64(0) // finished board-time
	for i := range jobs {
		if j := &jobs[i]; j.Finished {
			waits.Observe(float64(j.Start - j.Arrival))
			busy += int64(j.Duration)
		}
	}
	row := BakeoffRow{
		Policy:     policy.Name(),
		Jobs:       cfg.Jobs,
		Completed:  int(waits.Count()),
		P50AdmitMS: waits.Quantile(0.5) / 1e6,
		P99AdmitMS: waits.Quantile(0.99) / 1e6,
		Requeues:   tot.Requeues,
		MeanScore:  tot.MeanScore,
		MakespanMS: float64(tot.Makespan) / 1e6,
	}
	if tot.Makespan > 0 {
		provisioned := float64(cfg.Nodes*cfg.BoardsPerNode) * float64(tot.Makespan)
		row.HWUtil = float64(busy) / provisioned
	}
	return row, nil
}
