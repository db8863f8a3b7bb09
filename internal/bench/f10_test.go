package bench

import (
	"reflect"
	"testing"

	"repro/internal/fleet"
	"repro/internal/trace"
)

// TestF10Shape gates the bake-off's claim at full scale, in the delay
// terms of strip packing with delays — when a job can start and finish:
// over the 12k-job churn replay with a mid-run node casualty, routing by
// when a job finishes (packing) starts jobs sooner in the tail than the
// random control (p99 admission delay) and finishes the stream sooner
// (makespan, so more of the provisioned capacity busy: hw_util), and no
// policy loses a job. These are the only comparisons EXPERIMENTS and
// README make of F10. They must hold under both board models: the
// column packing the table prints (columnBakeoff) and the daemon's
// (fleet.RunBakeoff), which the table moves to. The replays are
// deterministic, so this is a regression gate, not a statistical
// assertion.
func TestF10Shape(t *testing.T) {
	cfg, err := FleetBakeoffConfig(Config{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	models := []struct {
		name string
		run  func(string) (fleet.BakeoffRow, error)
	}{
		{"columnBakeoff", func(p string) (fleet.BakeoffRow, error) { return columnBakeoff(cfg, p), nil }},
		{"fleet.RunBakeoff", func(p string) (fleet.BakeoffRow, error) { return fleet.RunBakeoff(cfg, p) }},
	}
	for _, m := range models {
		rows := map[string]fleet.BakeoffRow{}
		for _, name := range fleet.PolicyNames {
			row, err := m.run(name)
			if err != nil {
				t.Fatal(err)
			}
			rows[name] = row
			if row.Jobs < 10_000 {
				t.Errorf("%s %s: %d jobs, want >= 10000", m.name, name, row.Jobs)
			}
			if row.Completed != row.Jobs {
				t.Errorf("%s %s: %d of %d jobs completed", m.name, name, row.Completed, row.Jobs)
			}
			if row.Requeues == 0 {
				t.Errorf("%s %s: node %d's casualty displaced nothing", m.name, name, cfg.FailNode)
			}
		}
		packing, random := rows["packing"], rows["random"]
		if packing.P99AdmitMS >= random.P99AdmitMS {
			t.Errorf("%s: packing p99 admission delay %.3fms does not beat random %.3fms", m.name, packing.P99AdmitMS, random.P99AdmitMS)
		}
		if packing.MakespanMS >= random.MakespanMS {
			t.Errorf("%s: packing makespan %.3fms does not beat random %.3fms", m.name, packing.MakespanMS, random.MakespanMS)
		}
		if packing.HWUtil <= random.HWUtil {
			t.Errorf("%s: packing hw_util %.4f does not beat random %.4f", m.name, packing.HWUtil, random.HWUtil)
		}
	}

	// The table renders one row per policy in PolicyNames order.
	tbl, err := F10PlacementBakeoff(Config{Seed: 42, Quick: true, Jobs: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != len(fleet.PolicyNames) {
		t.Fatalf("table has %d rows, want %d", len(tbl.Rows), len(fleet.PolicyNames))
	}
	for i, name := range fleet.PolicyNames {
		if tbl.Rows[i][0] != name {
			t.Errorf("row %d policy %q, want %q", i, tbl.Rows[i][0], name)
		}
	}
}

// TestF10OnRenewedScratch renders F10 at seeds 1–3, quick and full, on
// renewed replay states and holds every row to a replay on a state built
// new: serially from an emptied list (a pass's later policies renew its
// first's state), and serially and on four workers from a list a pass of
// the other size dirtied — a quick pass's states before a full one, a
// full pass's before a quick one, so the arrays a replay renews are
// shorter or longer than its own. The list must hold no more states than
// F10 ever had live at once.
func TestF10OnRenewedScratch(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3} {
		for _, quick := range []bool{false, true} {
			cfg := Config{Seed: seed, Quick: quick}
			bcfg, err := FleetBakeoffConfig(cfg)
			if err != nil {
				t.Fatal(err)
			}
			var fresh trace.Table
			for _, p := range fleet.PolicyNames {
				replays.empty()
				fresh.AddRow(f10Row(columnBakeoff(bcfg, p))...)
			}
			for _, dirty := range []struct {
				name string
				jobs int
			}{{"emptied", 1}, {"dirtied", 1}, {"dirtied", 4}} {
				replays.empty()
				if dirty.name == "dirtied" {
					f10Rows(t, Config{Seed: seed + 10, Quick: !quick, Jobs: dirty.jobs})
				}
				cfg.Jobs = dirty.jobs
				if got := f10Rows(t, cfg); !reflect.DeepEqual(got, fresh.Rows) {
					t.Errorf("seed %d, quick %v, jobs %d, %s list: F10 on renewed replay states prints\n%v\nwant, on new ones,\n%v",
						seed, quick, dirty.jobs, dirty.name, got, fresh.Rows)
				}
				if n := replays.count(struct{}{}); n > len(fleet.PolicyNames) {
					t.Errorf("%d replay states on the free list, more than F10's %d policies", n, len(fleet.PolicyNames))
				}
			}
		}
	}
}

func f10Rows(t *testing.T, cfg Config) [][]string {
	t.Helper()
	tbl, err := F10PlacementBakeoff(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return tbl.Rows
}
