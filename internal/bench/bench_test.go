package bench

import (
	"strconv"
	"strings"
	"testing"

	"repro/internal/hostos"
	"repro/internal/lint"
)

func quick() Config { return Config{Seed: 1, Quick: true} }

// runExp executes an experiment in quick mode and returns its table.
func runExp(t *testing.T, id string) *traceTable {
	t.Helper()
	e, ok := Find(id)
	if !ok {
		t.Fatalf("experiment %s not registered", id)
	}
	tbl, err := e.Run(quick())
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	if len(tbl.Rows) == 0 {
		t.Fatalf("%s produced no rows", id)
	}
	for _, row := range tbl.Rows {
		if len(row) != len(tbl.Columns) {
			t.Fatalf("%s row width %d != %d columns", id, len(row), len(tbl.Columns))
		}
	}
	return &traceTable{tbl.Columns, tbl.Rows}
}

type traceTable struct {
	cols []string
	rows [][]string
}

func (t *traceTable) col(name string) int {
	for i, c := range t.cols {
		if c == name {
			return i
		}
	}
	return -1
}

func (t *traceTable) f(row int, col string) float64 {
	v, err := strconv.ParseFloat(t.rows[row][t.col(col)], 64)
	if err != nil {
		panic(err)
	}
	return v
}

func TestAllRegistered(t *testing.T) {
	ids := map[string]bool{}
	for _, e := range All() {
		if ids[e.ID] {
			t.Fatalf("duplicate experiment %s", e.ID)
		}
		ids[e.ID] = true
		if e.Run == nil {
			t.Fatalf("experiment %s malformed", e.ID)
		}
	}
	for _, want := range []string{"T1", "T2", "T3", "T4", "T5", "F1", "F2", "F3", "F4", "F5", "F6", "F7", "F8", "F9", "F10", "A1"} {
		if !ids[want] {
			t.Fatalf("missing experiment %s", want)
		}
	}
	if _, ok := Find("nope"); ok {
		t.Fatal("Find invented an experiment")
	}
}

func TestT1Shape(t *testing.T) {
	tbl := runExp(t, "T1")
	// Full-only reconfiguration must be less efficient than partial at
	// the same work per op (the paper's feasibility claim).
	for i := 0; i+2 < len(tbl.rows); i += 3 {
		partial := tbl.f(i, "efficiency")
		full := tbl.f(i+2, "efficiency")
		if full >= partial {
			t.Fatalf("row %d: full efficiency %.3f >= partial %.3f", i, full, partial)
		}
	}
	// Efficiency rises with work per switch.
	first := tbl.f(0, "efficiency")
	last := tbl.f(len(tbl.rows)-3, "efficiency")
	if last <= first {
		t.Fatalf("efficiency should rise with evals/op: %.3f -> %.3f", first, last)
	}
}

func TestT2Shape(t *testing.T) {
	tbl := runExp(t, "T2")
	// Save/restore loses no work; rollback redoes some.
	for i := range tbl.rows {
		policy := tbl.rows[i][tbl.col("policy")]
		redone := tbl.f(i, "redone_ms")
		switch policy {
		case "save-restore", "non-preemptable":
			if redone != 0 {
				t.Fatalf("%s redid %.3f ms", policy, redone)
			}
		case "rollback":
			if redone <= 0 {
				t.Fatalf("rollback redid nothing")
			}
		}
	}
}

func TestT3Shape(t *testing.T) {
	tbl := runExp(t, "T3")
	// Any partitioned manager must reload less than whole-device dynamic.
	dynLoads := tbl.f(0, "loads")
	for i := 1; i < len(tbl.rows); i++ {
		if tbl.f(i, "loads") > dynLoads {
			t.Fatalf("%s loads %.0f > dynamic %.0f", tbl.rows[i][0], tbl.f(i, "loads"), dynLoads)
		}
	}
}

// Every T3 manager leaves a lint-clean board behind — the two fixed
// tables included, whose slots are all free and side by side once the
// tasks have exited.
func TestT3BoardsLintClean(t *testing.T) {
	cfg := quick()
	for _, m := range t3Managers {
		set := t3Set(cfg)
		st, err := newStack(defaultOpt(cfg), 1, hostos.DefaultConfig(), set, m.mk)
		if err != nil {
			t.Fatal(err)
		}
		if err := st.Run(set); err != nil {
			t.Fatalf("%s: %v", m.name, err)
		}
		diags, err := st.Lint()
		if err != nil {
			t.Fatal(err)
		}
		if lint.HasErrors(diags) {
			t.Errorf("%s: board not lint-clean after the run: %v", m.name, lint.Errors(diags))
		}
	}
}

func TestT4Shape(t *testing.T) {
	tbl := runExp(t, "T4")
	// More resident circuits -> fewer loads.
	for i := 1; i < len(tbl.rows); i++ {
		if tbl.f(i, "loads") > tbl.f(i-1, "loads") {
			t.Fatalf("loads increased with larger resident set: row %d", i)
		}
	}
	if tbl.f(len(tbl.rows)-1, "loads") >= tbl.f(0, "loads") {
		t.Fatal("resident set saved no loads at all")
	}
}

func TestT5Shape(t *testing.T) {
	tbl := runExp(t, "T5")
	// Fewer pins -> higher mux factor -> proportionally slower.
	for i := 1; i < len(tbl.rows); i++ {
		if tbl.f(i, "mux_factor") <= tbl.f(i-1, "mux_factor") {
			t.Fatal("mux factor should rise as pins shrink")
		}
		if tbl.f(i, "slowdown") <= tbl.f(i-1, "slowdown") {
			t.Fatal("slowdown should rise with mux factor")
		}
	}
}

func TestF1Shape(t *testing.T) {
	tbl := runExp(t, "F1")
	// The merged reference row is the fastest; smaller devices cost more.
	ref := tbl.f(0, "makespan_ms")
	for i := 1; i < len(tbl.rows); i++ {
		if tbl.f(i, "makespan_ms") < ref {
			t.Fatalf("row %d beats the zero-reconfig reference", i)
		}
	}
	// The smallest device must still complete (the headline claim) with a
	// size ratio > 1 (application larger than device).
	last := len(tbl.rows) - 1
	if tbl.f(last, "size_ratio") <= 1 {
		t.Fatalf("smallest device not actually smaller than the application: ratio %.2f",
			tbl.f(last, "size_ratio"))
	}
}

func TestF2Shape(t *testing.T) {
	tbl := runExp(t, "F2")
	// At the largest task count, the exclusive baseline blocks more than
	// the partitioned manager.
	n := len(tbl.rows)
	exclBlock := tbl.f(n-3, "mean_block_ms")
	partBlock := tbl.f(n-1, "mean_block_ms")
	if exclBlock <= partBlock {
		t.Fatalf("exclusive block %.3f <= partitioned %.3f", exclBlock, partBlock)
	}
}

func TestF3Shape(t *testing.T) {
	tbl := runExp(t, "F3")
	// Small device: merged infeasible; large device: merged beats dynamic.
	if !strings.HasPrefix(tbl.rows[0][tbl.col("merged_makespan_ms")], "n/a") {
		t.Fatal("merged should not fit the smallest device")
	}
	last := len(tbl.rows) - 1
	merged := tbl.f(last, "merged_makespan_ms")
	dynamic := tbl.f(last, "dynamic_makespan_ms")
	if merged >= dynamic {
		t.Fatalf("on a big device merged %.3f should beat dynamic %.3f", merged, dynamic)
	}
}

func TestF4Shape(t *testing.T) {
	tbl := runExp(t, "F4")
	if len(tbl.rows) != 2 {
		t.Fatalf("rows %d", len(tbl.rows))
	}
	gcOff, gcOn := 0, 1
	if tbl.f(gcOn, "gc_runs") > 0 && tbl.f(gcOn, "relocations") == 0 {
		t.Fatal("GC ran without relocations")
	}
	if tbl.f(gcOff, "gc_runs") != 0 {
		t.Fatal("GC ran while disabled")
	}
}

func TestF5Shape(t *testing.T) {
	tbl := runExp(t, "F5")
	for i := range tbl.rows {
		rate := tbl.f(i, "fault_rate")
		if rate < 0 || rate > 1 {
			t.Fatalf("fault rate %.3f out of range", rate)
		}
		if tbl.f(i, "faults") <= 0 {
			t.Fatal("no faults at all")
		}
	}
}

// TestF5RandomVictimSeeds replays the two seeds in 1..1024 at which the
// full F5 sweep used to die with "random found no victim": two of three
// frames pinned leave one evictable frame, and the random policy's
// bounded rejection sampling missed it 30 times in a row.
func TestF5RandomVictimSeeds(t *testing.T) {
	for _, seed := range []uint64{112, 217} {
		tbl, err := F5Pagination(Config{Seed: seed})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if len(tbl.Rows) != 12 {
			t.Fatalf("seed %d: %d rows, want 3 page sizes x 4 policies", seed, len(tbl.Rows))
		}
	}
}

func TestF6Shape(t *testing.T) {
	tbl := runExp(t, "F6")
	if len(tbl.rows) < 5 {
		t.Fatalf("rows %d", len(tbl.rows))
	}
	// Segmented runs on a smaller device than monolithic needs.
	monoCols := tbl.f(0, "device_cols")
	segCols := tbl.f(1, "device_cols")
	if segCols >= monoCols {
		t.Fatalf("segmented device %d not smaller than monolithic %d", int(segCols), int(monoCols))
	}
	if !strings.Contains(tbl.rows[2][tbl.col("makespan_ms")], "infeasible") {
		t.Fatal("monolithic-on-small row should be infeasible")
	}
	// Auto-segmentation: smaller device than the whole circuit needs, at
	// a makespan cost.
	last := len(tbl.rows) - 1 // whole mul8 reference
	autoRow := 3              // k=2
	if tbl.f(autoRow, "device_cols") >= tbl.f(last, "device_cols") {
		t.Fatal("auto-segmented device not smaller than whole-circuit device")
	}
	if tbl.f(autoRow, "makespan_ms") <= tbl.f(last, "makespan_ms") {
		t.Fatal("auto-segmentation should cost makespan")
	}
}

// TestF8Shape: boards aggregate into one virtual resource down to the
// widest strip. A split is infeasible exactly when its boards are
// narrower than the widest circuit of the set, and every feasible split
// finishes within a bound on the makespan.
func TestF8Shape(t *testing.T) {
	tbl := runExp(t, "F8")
	cfg := quick()
	circs, err := compileSet(defaultOpt(cfg), f8Set(cfg).Circuits)
	if err != nil {
		t.Fatal(err)
	}
	widest := 0
	for _, c := range circs {
		widest = max(widest, c.BS.W)
	}
	// The quick table at seed 1 reads 151.271 ms for 1, 2 and 4 boards
	// alike, with a widest strip of 3 columns; the bound leaves a quarter
	// over that.
	const boundMS = 190
	for i := range tbl.rows {
		cols := tbl.f(i, "cols_each")
		mk := tbl.rows[i][tbl.col("makespan_ms")]
		if infeasible := mk == "infeasible"; infeasible != (int(cols) < widest) {
			t.Fatalf("row %d: %v columns a board, widest strip %d, makespan %q", i, cols, widest, mk)
		}
		if mk == "infeasible" {
			continue
		}
		if ms := tbl.f(i, "makespan_ms"); ms <= 0 || ms > boundMS {
			t.Fatalf("row %d: makespan %.3f ms outside (0, %v]", i, ms, boundMS)
		}
		if got := tbl.rows[i][tbl.col("widest_fits")]; got != "yes" {
			t.Fatalf("row %d: feasible split reads widest_fits %q", i, got)
		}
	}
}

// TestA1Shape: the optimizer buys area, and download time follows area.
// Over the full table the optimized library is smaller in total; per
// circuit it never grows, but for crc16, where CSE changes the cones the
// greedy packer sees (16 → 17 cells); and each row's two config times
// are ordered like its two cell counts.
func TestA1Shape(t *testing.T) {
	tbl, err := A1OptimizerAblation(Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	known := map[string][2]float64{"crc16": {16, 17}}
	rows := &traceTable{tbl.Columns, tbl.Rows}
	var raw, opt float64
	sign := func(a, b float64) int {
		switch {
		case a < b:
			return -1
		case a > b:
			return 1
		}
		return 0
	}
	for i, row := range rows.rows {
		name := row[rows.col("circuit")]
		r, o := rows.f(i, "cells_raw"), rows.f(i, "cells_opt")
		raw, opt = raw+r, opt+o
		if o > r {
			if want, ok := known[name]; !ok || want != [2]float64{r, o} {
				t.Errorf("%s: optimizer grew %v → %v cells", name, r, o)
			}
		}
		if cr, co := rows.f(i, "config_raw_ms"), rows.f(i, "config_opt_ms"); sign(co, cr) != sign(o, r) {
			t.Errorf("%s: config %.3f → %.3f ms against cells %v → %v", name, cr, co, r, o)
		}
	}
	for name := range known {
		found := false
		for _, row := range rows.rows {
			found = found || row[rows.col("circuit")] == name
		}
		if !found {
			t.Errorf("known exception %s is not in the table", name)
		}
	}
	if opt >= raw {
		t.Fatalf("optimized library %v cells, unoptimized %v", opt, raw)
	}
}

func TestF9Shape(t *testing.T) {
	tbl := runExp(t, "F9")
	if len(tbl.rows) != 2 {
		t.Fatalf("rows %d, want partition+amorphous", len(tbl.rows))
	}
	part, amor := 0, 1
	if got := tbl.rows[part][tbl.col("manager")]; got != "partition" {
		t.Fatalf("row 0 manager %q", got)
	}
	if got := tbl.rows[amor][tbl.col("manager")]; got != "amorphous" {
		t.Fatalf("row 1 manager %q", got)
	}
	// The tentpole's acceptance axis: on the identical churn the amorphous
	// manager must win on sustained utilization or tail admission latency.
	hwWin := tbl.f(amor, "hw_util") > tbl.f(part, "hw_util")
	tailWin := tbl.f(amor, "p95_block_ms") < tbl.f(part, "p95_block_ms")
	if !hwWin && !tailWin {
		t.Fatalf("amorphous wins neither axis: hw_util %.4f vs %.4f, p95_block %.3f vs %.3f",
			tbl.f(amor, "hw_util"), tbl.f(part, "hw_util"),
			tbl.f(amor, "p95_block_ms"), tbl.f(part, "p95_block_ms"))
	}
	// The adoption cache means a recurring circuit reattaches without a
	// fresh configuration, so loads must not exceed the partition run's.
	if tbl.f(amor, "loads") > tbl.f(part, "loads") {
		t.Fatalf("amorphous loads %.0f > partition %.0f", tbl.f(amor, "loads"), tbl.f(part, "loads"))
	}
}

func TestF7Shape(t *testing.T) {
	tbl := runExp(t, "F7")
	// Within each scenario: software is slowest; merged big FPGA loads 0
	// extra at run time... (init loads counted), and the dynamic VFPGA on
	// the small device completes everything.
	byScenario := map[string][][]string{}
	for _, row := range tbl.rows {
		byScenario[row[0]] = append(byScenario[row[0]], row)
	}
	if len(byScenario) != 4 {
		t.Fatalf("scenarios %d, want multimedia/telecom/diagnosis/storage", len(byScenario))
	}
	mk := tbl.col("makespan_ms")
	for name, rows := range byScenario {
		soft, _ := strconv.ParseFloat(rows[0][mk], 64)
		merged, _ := strconv.ParseFloat(rows[3][mk], 64)
		if soft <= merged {
			t.Fatalf("%s: software %.3f should be slower than big FPGA %.3f", name, soft, merged)
		}
	}
}

func TestDeterministicTables(t *testing.T) {
	e, _ := Find("T3")
	a, err := e.Run(quick())
	if err != nil {
		t.Fatal(err)
	}
	b, err := e.Run(quick())
	if err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("T3 not deterministic")
	}
}
