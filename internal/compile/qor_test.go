package compile

// EXPERIMENTS.md's QoR table (quality of results) is generated here, not
// in internal/bench: it is the CAD flow's own record, one row per
// registry circuit strip-compiled at 16 rows, seeds 1–3 summed, and a
// totals row. A change to placement or routing fails TestStripDigests
// wholesale; this table says whether the new bytes are better, and
// CompareQoR says it per column the way VTR does, in geomean ratios with
// div16 apart. Regenerate it after an intended change with
// `go test ./internal/compile -run '^TestQoRTable$' -update -v` (or
// `make docs`), which prints that comparison first.

import (
	"fmt"
	"math"
	"os"
	"regexp"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/fabric"
	"repro/internal/netlist"
)

const experimentsPath = "../../EXPERIMENTS.md"

// qorBlock matches EXPERIMENTS.md's generated QoR table.
var qorBlock = regexp.MustCompile(`(?s)<!-- table:QoR -->\n(.*?)<!-- /table -->`)

// qorColumns are the table's numeric columns, in qorNumbers' order.
var qorColumns = []string{"luts", "depth", "cols", "wirelength", "hops", "clock_ns", "max_use", "iterations", "pops", "moves"}

// qorNumbers is one strip compile's row.
func qorNumbers(c *Circuit) [10]int {
	return [10]int{c.Cells(), c.Depth, c.BS.W, c.Wirelength, c.BS.TotalHops, int(c.ClockPeriod),
		c.MaxUse, c.Iterations, c.Pops, c.Moves}
}

// qorTable renders the QoR block: every registry circuit at 16 rows and
// the default channel capacity, seeds 1–3 summed.
func qorTable(t *testing.T) string {
	t.Helper()
	reg := netlist.Registry()
	names := make([]string, 0, len(reg))
	for name := range reg {
		names = append(names, name)
	}
	sort.Strings(names)
	tracks := fabric.DefaultGeometry().TracksPerChannel
	var b strings.Builder
	b.WriteString("| circuit | " + strings.Join(qorColumns, " | ") + " |\n")
	b.WriteString(strings.Repeat("|---", len(qorColumns)+1) + "|\n")
	line := func(name string, row [10]int) {
		b.WriteString("| " + name)
		for _, v := range row {
			fmt.Fprintf(&b, " | %d", v)
		}
		b.WriteString(" |\n")
	}
	var total [10]int
	for _, name := range names {
		var row [10]int
		for seed := uint64(1); seed <= 3; seed++ {
			c, err := CompileStrip(reg[name](), 16, tracks, Options{Seed: seed})
			if err != nil {
				t.Fatalf("%s seed %d: %v", name, seed, err)
			}
			for i, v := range qorNumbers(c) {
				row[i] += v
				total[i] += v
			}
		}
		line(name, row)
	}
	line(fmt.Sprintf("total (%d circuits)", len(names)), total)
	return b.String()
}

// QoRColumn is one column of CompareQoR, as VTR's qor_compare judges a
// flow change: every column is a cost, so a ratio above 1 is worse.
type QoRColumn struct {
	Column  string
	Geomean float64  // geometric mean of the per-circuit ratios new/old
	Div16   float64  // div16's ratio: it dominates every column's total
	Rest    float64  // the other circuits' summed new over summed old
	Worse   []string // circuits whose ratio exceeds 1.05, in table order
}

// qorRows parses a QoR block's circuit rows, the totals row left out.
func qorRows(block string) (names []string, rows map[string][10]int, err error) {
	rows = map[string][10]int{}
	for i, line := range strings.Split(strings.TrimSpace(block), "\n") {
		cells := strings.Split(strings.Trim(line, "| "), " | ")
		if i < 2 || strings.HasPrefix(cells[0], "total") {
			continue // the header, its rule and the totals
		}
		if len(cells) != len(qorColumns)+1 {
			return nil, nil, fmt.Errorf("QoR row %q: %d cells, want %d", line, len(cells), len(qorColumns)+1)
		}
		var row [10]int
		for j := range row {
			if row[j], err = strconv.Atoi(cells[j+1]); err != nil {
				return nil, nil, fmt.Errorf("QoR row %q: %w", line, err)
			}
		}
		names = append(names, cells[0])
		rows[cells[0]] = row
	}
	return names, rows, nil
}

// qorRatio is new/old, 1 when both are 0.
func qorRatio(old, new int) float64 {
	if old == new {
		return 1
	}
	return float64(new) / float64(old)
}

// CompareQoR compares two QoR blocks, per column: the geomean of the
// per-circuit ratios new/old, div16's ratio, the rest's summed ratio and
// the circuits worse by more than 5 %. Both blocks must hold the same
// circuits.
func CompareQoR(old, new string) ([]QoRColumn, error) {
	names, oldRows, err := qorRows(old)
	if err != nil {
		return nil, err
	}
	_, newRows, err := qorRows(new)
	if err != nil {
		return nil, err
	}
	if len(newRows) != len(oldRows) {
		return nil, fmt.Errorf("QoR blocks hold %d and %d circuits", len(oldRows), len(newRows))
	}
	cols := make([]QoRColumn, len(qorColumns))
	for j, col := range qorColumns {
		c := QoRColumn{Column: col, Div16: 1, Rest: 1}
		var logSum float64
		var restOld, restNew int
		for _, name := range names {
			nr, ok := newRows[name]
			if !ok {
				return nil, fmt.Errorf("QoR block lacks %s", name)
			}
			o, n := oldRows[name][j], nr[j]
			r := qorRatio(o, n)
			logSum += math.Log(r)
			if r > 1.05 {
				c.Worse = append(c.Worse, name)
			}
			if name == "div16" {
				c.Div16 = r
			} else {
				restOld, restNew = restOld+o, restNew+n
			}
		}
		c.Geomean = math.Exp(logSum / float64(len(names)))
		c.Rest = qorRatio(restOld, restNew)
		cols[j] = c
	}
	return cols, nil
}

// formatQoR renders CompareQoR's columns as a fixed-width table.
func formatQoR(cols []QoRColumn) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-11s %8s %8s %8s  %s\n", "new/old", "geomean", "div16", "rest", "worse >5%")
	for _, c := range cols {
		fmt.Fprintf(&b, "%-11s %8.3f %8.3f %8.3f  %s\n", c.Column, c.Geomean, c.Div16, c.Rest,
			strings.Join(append([]string{strconv.Itoa(len(c.Worse))}, c.Worse...), " "))
	}
	return b.String()
}

// TestCompareQoR compares the committed QoR block with itself, which
// must read 1.000 everywhere and nothing worse, and with a copy in which
// one circuit's wirelength grew 10 % and div16's pops halved.
func TestCompareQoR(t *testing.T) {
	doc, err := os.ReadFile(experimentsPath)
	if err != nil {
		t.Fatal(err)
	}
	m := qorBlock.FindSubmatch(doc)
	if m == nil {
		t.Fatal("EXPERIMENTS.md has no table:QoR block")
	}
	block := string(m[1])
	cols, err := CompareQoR(block, block)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cols {
		if c.Geomean != 1 || c.Div16 != 1 || c.Rest != 1 || len(c.Worse) != 0 {
			t.Errorf("the table against itself: %+v", c)
		}
	}
	changed := strings.Replace(block, "| adder8 | 48 | 24 | 6 | 348 |", "| adder8 | 48 | 24 | 6 | 383 |", 1)
	changed = strings.Replace(changed, "| 28 | 10630473 |", "| 28 | 5315236 |", 1)
	if changed == block {
		t.Fatal("the committed block has moved: update the rows this test edits")
	}
	if cols, err = CompareQoR(block, changed); err != nil {
		t.Fatal(err)
	}
	wl, pops := cols[3], cols[8]
	if wl.Column != "wirelength" || !slices.Equal(wl.Worse, []string{"adder8"}) || wl.Div16 != 1 || wl.Rest <= 1 {
		t.Errorf("wirelength: %+v", wl)
	}
	if pops.Column != "pops" || len(pops.Worse) != 0 || math.Abs(pops.Div16-0.5) > 1e-6 || pops.Rest != 1 {
		t.Errorf("pops: %+v", pops)
	}
	if want := math.Pow(0.5, 1/47.0); math.Abs(pops.Geomean-want) > 1e-6 {
		t.Errorf("pops geomean %.6f, want %.6f", pops.Geomean, want)
	}
	if _, err := CompareQoR(block, strings.Replace(block, "| adder8 |", "| adder9 |", 1)); err == nil {
		t.Error("blocks with different circuits compared")
	}
}

// TestQoRTable holds EXPERIMENTS.md's QoR block to what the flow
// computes; with -update it logs CompareQoR of the committed block and
// the computed one (-v shows it), then rewrites the block.
func TestQoRTable(t *testing.T) {
	want := qorTable(t)
	doc, err := os.ReadFile(experimentsPath)
	if err != nil {
		t.Fatal(err)
	}
	m := qorBlock.FindSubmatchIndex(doc)
	if m == nil {
		t.Fatal("EXPERIMENTS.md has no table:QoR block")
	}
	if *update {
		cols, err := CompareQoR(string(doc[m[2]:m[3]]), want)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("QoR of the tree against the committed table:\n%s", formatQoR(cols))
		out := append(append(append([]byte{}, doc[:m[2]]...), want...), doc[m[3]:]...)
		if err := os.WriteFile(experimentsPath, out, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if got := string(doc[m[2]:m[3]]); got != want {
		t.Errorf("EXPERIMENTS.md table:QoR is stale (run with -update if the change is intended)\n--- in the file ---\n%s--- computed ---\n%s", got, want)
	}
}
