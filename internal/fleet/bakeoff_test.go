package fleet

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"testing"
	"unsafe"

	"repro/internal/sim"
)

func testBakeoffConfig(jobs int) BakeoffConfig {
	return BakeoffConfig{
		Nodes: 3, BoardsPerNode: 2, Cols: 24,
		Jobs: jobs, Seed: 42,
		MeanInterval: 40 * sim.Microsecond,
		Classes: []JobClass{
			{Name: "narrow", Width: 4, Duration: 300 * sim.Microsecond, Weight: 5},
			{Name: "medium", Width: 9, Duration: 500 * sim.Microsecond, Weight: 3},
			{Name: "wide", Width: 18, Duration: 800 * sim.Microsecond, Weight: 2},
		},
		FailNode: 1, FailAt: 5 * sim.Millisecond,
	}
}

// BakeoffRecord is one config's rows as testdata/bakeoff_rows.json
// holds them.
type BakeoffRecord struct {
	Config BakeoffConfig `json:"config"`
	Rows   []BakeoffRow  `json:"rows"`
}

// RunBakeoffAll replays the stream against each named policy in order.
func RunBakeoffAll(cfg BakeoffConfig, policies []string) (*BakeoffRecord, error) {
	rec := &BakeoffRecord{Config: cfg}
	for _, name := range policies {
		row, err := RunBakeoff(cfg, name)
		if err != nil {
			return nil, err
		}
		rec.Rows = append(rec.Rows, row)
	}
	return rec, nil
}

func TestBakeoffDeterministic(t *testing.T) {
	cfg := testBakeoffConfig(800)
	a, err := RunBakeoffAll(cfg, PolicyNames)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunBakeoffAll(cfg, PolicyNames)
	if err != nil {
		t.Fatal(err)
	}
	ja, _ := json.Marshal(a)
	jb, _ := json.Marshal(b)
	if !bytes.Equal(ja, jb) {
		t.Fatalf("replay not byte-identical:\n%s\n%s", ja, jb)
	}
}

func TestBakeoffCompletesEveryJob(t *testing.T) {
	cfg := testBakeoffConfig(600)
	rec, err := RunBakeoffAll(cfg, PolicyNames)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range rec.Rows {
		if row.Completed != cfg.Jobs {
			t.Errorf("%s: completed %d of %d — displaced jobs lost", row.Policy, row.Completed, cfg.Jobs)
		}
		if row.Requeues == 0 {
			t.Errorf("%s: node %d failed at %v but no job was displaced", row.Policy, cfg.FailNode, cfg.FailAt)
		}
		if row.HWUtil <= 0 || row.HWUtil > 1 {
			t.Errorf("%s: hw_util %v outside (0, 1]", row.Policy, row.HWUtil)
		}
	}
}

func TestBakeoffValidates(t *testing.T) {
	bad := []BakeoffConfig{
		{},
		{Nodes: 1, BoardsPerNode: 1, Cols: 8, Jobs: 1, MeanInterval: 1,
			Classes: []JobClass{{Name: "x", Width: 9, Duration: 1, Weight: 1}}, FailNode: -1}, // wider than board
		{Nodes: 1, BoardsPerNode: 1, Cols: 8, Jobs: 1, MeanInterval: 1,
			Classes: []JobClass{{Name: "x", Width: 4, Duration: 1, Weight: 1}}, FailNode: 3}, // fail node outside fleet
	}
	for i, cfg := range bad {
		if _, err := RunBakeoff(cfg, "firstfit"); err == nil {
			t.Errorf("config %d accepted", i)
		}
	}
	if _, err := RunBakeoff(testBakeoffConfig(10), "nope"); err == nil {
		t.Error("unknown policy accepted")
	}
}

var update = flag.Bool("update", false, "rewrite golden files")

// pinnedBakeoffConfigs is the table behind testdata/bakeoff_rows.json:
// four seeds with and without the node casualty, a tight 12-column
// fleet, integer-nanosecond configs where arrivals, completions and the
// failure share timestamps, and a one-node fleet that loses every job
// after its only node fails.
func pinnedBakeoffConfigs() []BakeoffConfig {
	var cfgs []BakeoffConfig
	for _, seed := range []uint64{1, 7, 42, 300} {
		for _, failNode := range []int{1, -1} {
			cfg := testBakeoffConfig(1200)
			cfg.Seed, cfg.FailNode = seed, failNode
			cfgs = append(cfgs, cfg)
		}
	}
	tight := BakeoffConfig{
		Nodes: 4, BoardsPerNode: 2, Cols: 12,
		Jobs: 1500, Seed: 5,
		MeanInterval: 60 * sim.Microsecond,
		Classes: []JobClass{
			{Name: "a", Width: 2, Duration: 400 * sim.Microsecond, Weight: 5},
			{Name: "b", Width: 3, Duration: 600 * sim.Microsecond, Weight: 3},
			{Name: "c", Width: 5, Duration: 800 * sim.Microsecond, Weight: 2},
			{Name: "d", Width: 7, Duration: 1200 * sim.Microsecond, Weight: 2},
			{Name: "e", Width: 10, Duration: 1600 * sim.Microsecond, Weight: 1},
		},
		FailNode: 1, FailAt: 36 * sim.Millisecond,
	}
	cfgs = append(cfgs, tight)
	for _, seed := range []uint64{3, 11} {
		ties := BakeoffConfig{
			Nodes: 3, BoardsPerNode: 2, Cols: 24,
			Jobs: 1000, Seed: seed,
			MeanInterval: 3 * sim.Nanosecond,
			Classes: []JobClass{
				{Name: "narrow", Width: 4, Duration: 30 * sim.Nanosecond, Weight: 5},
				{Name: "medium", Width: 9, Duration: 45 * sim.Nanosecond, Weight: 3},
				{Name: "wide", Width: 18, Duration: 60 * sim.Nanosecond, Weight: 2},
			},
			FailNode: 2, FailAt: 1200 * sim.Nanosecond,
		}
		cfgs = append(cfgs, ties)
	}
	lone := testBakeoffConfig(300)
	lone.Nodes, lone.FailNode = 1, 0
	return append(cfgs, lone)
}

// TestBakeoffRowsPinned compares every policy's row over the config
// table byte-for-byte with rows recorded before the replay moved onto
// sim.Kernel. Regenerate (go test ./internal/fleet -run
// TestBakeoffRowsPinned -update) only when the model is meant to change.
func TestBakeoffRowsPinned(t *testing.T) {
	var recs []*BakeoffRecord
	for _, cfg := range pinnedBakeoffConfigs() {
		rec, err := RunBakeoffAll(cfg, PolicyNames)
		if err != nil {
			t.Fatal(err)
		}
		recs = append(recs, rec)
	}
	got, err := json.MarshalIndent(recs, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	const path = "testdata/bakeoff_rows.json"
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("bake-off rows differ from %s (%d vs %d bytes)", path, len(got), len(want))
	}
}

// TestBakeoffAllocBudget pins what a replay allocates: per run, the job
// array, the boards with their estimates and the fleet view; as the
// backlog grows, the doublings of the kernel's pending events, one per
// job on a board; and nothing per job — a board is its free-at time, and
// completions name their job by index through a handler bound once.
func TestBakeoffAllocBudget(t *testing.T) {
	replay := func(jobs int, policy string) float64 {
		cfg := testBakeoffConfig(jobs)
		return testing.AllocsPerRun(3, func() {
			if _, err := RunBakeoff(cfg, policy); err != nil {
				t.Fatal(err)
			}
		})
	}
	for _, policy := range PolicyNames {
		small, large := replay(2000, policy), replay(8000, policy)
		t.Logf("%s: %.0f allocations for 2 000 jobs, %.0f for 8 000", policy, small, large)
		if large > small+16 {
			t.Errorf("%s: a replay allocates %.0f times for 8 000 jobs and %.0f for 2 000: something allocates per job", policy, large, small)
		}
		if small > 64 {
			t.Errorf("%s: a 2 000-job replay allocates %.0f times, budget 64", policy, small)
		}
	}
}

// SimJob stays at 56 bytes: F10 keeps 36 000 of them live a pass.
func TestSimJobSize(t *testing.T) {
	if got := unsafe.Sizeof(SimJob{}); got != 56 {
		t.Errorf("SimJob is %d bytes, want 56", got)
	}
}

func BenchmarkBakeoff(b *testing.B) {
	cfg := testBakeoffConfig(1500)
	for _, policy := range PolicyNames {
		b.Run(policy, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := RunBakeoff(cfg, policy); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
