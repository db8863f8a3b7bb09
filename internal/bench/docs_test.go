package bench

// EXPERIMENTS.md's result tables are generated: each experiment's table at
// seed 1, rendered as Markdown, sits between `<!-- table:ID -->` and
// `<!-- /table -->`, and this test fails when a block differs from what
// the code computes. Regenerate after an intended change with
// `go test ./internal/bench -run TestExperimentsTables -update` (or
// `make docs`).

import (
	"flag"
	"fmt"
	"os"
	"regexp"
	"strings"
	"testing"

	"repro/internal/trace"
)

var update = flag.Bool("update", false, "rewrite the generated tables in EXPERIMENTS.md")

const experimentsPath = "../../EXPERIMENTS.md"

// tableBlock matches one generated block: its id and its body.
var tableBlock = regexp.MustCompile(`(?s)<!-- table:(\w+) -->\n(.*?)<!-- /table -->`)

// markdown renders a table as the block EXPERIMENTS.md carries.
func markdown(t *trace.Table) string {
	var b strings.Builder
	line := func(cells []string) {
		for _, c := range cells {
			b.WriteString("| " + strings.ReplaceAll(c, "|", `\|`) + " ")
		}
		b.WriteString("|\n")
	}
	line(t.Columns)
	b.WriteString(strings.Repeat("|---", len(t.Columns)) + "|\n")
	for _, r := range t.Rows {
		line(r)
	}
	return b.String()
}

func TestExperimentsTables(t *testing.T) {
	want := map[string]string{}
	for _, o := range Run(Config{Seed: 1, Jobs: 4}, All()) {
		if o.Err != nil {
			t.Fatalf("%s: %v", o.Exp.ID, o.Err)
		}
		want[o.Exp.ID] = markdown(o.Table)
	}
	data, err := os.ReadFile(experimentsPath)
	if err != nil {
		t.Fatal(err)
	}
	doc := string(data)

	// Every block is checked by someone: the experiments here, the Load
	// table by internal/loadgen's TestLoadTable, the QoR table by
	// internal/compile's TestQoRTable.
	seen := map[string]bool{}
	for _, m := range tableBlock.FindAllStringSubmatch(doc, -1) {
		id := m[1]
		if seen[id] {
			t.Errorf("table:%s appears twice", id)
		}
		seen[id] = true
		if _, ok := want[id]; !ok && id != "Load" && id != "QoR" {
			t.Errorf("table:%s names no experiment", id)
		}
	}
	for _, e := range All() {
		if !seen[e.ID] {
			t.Errorf("no table:%s block", e.ID)
		}
	}
	if t.Failed() {
		t.FailNow()
	}

	if *update {
		doc = tableBlock.ReplaceAllStringFunc(doc, func(block string) string {
			id := tableBlock.FindStringSubmatch(block)[1]
			if body, ok := want[id]; ok {
				return fmt.Sprintf("<!-- table:%s -->\n%s<!-- /table -->", id, body)
			}
			return block
		})
		if err := os.WriteFile(experimentsPath, []byte(doc), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	for _, m := range tableBlock.FindAllStringSubmatch(doc, -1) {
		if body, ok := want[m[1]]; ok && m[2] != body {
			t.Errorf("EXPERIMENTS.md table:%s is stale (run with -update if the change is intended)\n--- in the file ---\n%s--- computed ---\n%s", m[1], m[2], body)
		}
	}
}
