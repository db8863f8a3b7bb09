package compile

// EXPERIMENTS.md's QoR table (quality of results) is generated here, not
// in internal/bench: it is the CAD flow's own record, one row per
// registry circuit strip-compiled at 16 rows, seeds 1–3 summed, and a
// totals row. A change to placement or routing fails TestStripDigests
// wholesale; this table says whether the new bytes are better. Regenerate
// it after an intended change with
// `go test ./internal/compile -run '^TestQoRTable$' -update` (or `make docs`).

import (
	"fmt"
	"os"
	"regexp"
	"sort"
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

// TestQoRTable holds EXPERIMENTS.md's QoR block to what the flow
// computes; with -update it rewrites the block.
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
