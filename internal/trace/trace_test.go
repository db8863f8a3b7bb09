package trace

import (
	"fmt"
	"math"
	"math/rand/v2"
	"strings"
	"testing"
)

func sample() *Table {
	t := &Table{
		ID:      "T9",
		Title:   "sample",
		Note:    "testing rendering",
		Columns: []string{"name", "value", "ratio"},
	}
	t.AddRow("alpha", 42, 1.5)
	t.AddRow("beta-long-name", 7, 0.25)
	return t
}

func TestAddRowFormatting(t *testing.T) {
	tb := sample()
	if tb.Rows[0][1] != "42" {
		t.Fatalf("int cell %q", tb.Rows[0][1])
	}
	if tb.Rows[0][2] != "1.500" {
		t.Fatalf("float cell %q", tb.Rows[0][2])
	}
}

func TestRenderAligned(t *testing.T) {
	s := sample().String()
	if !strings.Contains(s, "== T9: sample ==") {
		t.Fatalf("missing header:\n%s", s)
	}
	if !strings.Contains(s, "testing rendering") {
		t.Fatal("missing note")
	}
	lines := strings.Split(s, "\n")
	var header, row string
	for i, l := range lines {
		if strings.HasPrefix(l, "name") {
			header = l
			row = lines[i+2]
		}
	}
	if header == "" {
		t.Fatalf("no column header:\n%s", s)
	}
	// The "value" column must start at the same offset in header and rows.
	if strings.Index(header, "value") < 0 {
		t.Fatal("no value column")
	}
	if !strings.HasPrefix(row, "alpha") {
		t.Fatalf("row misaligned: %q", row)
	}
}

func TestWriteCSV(t *testing.T) {
	var b strings.Builder
	if err := sample().WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("csv lines %d", len(lines))
	}
	if lines[0] != "name,value,ratio" {
		t.Fatalf("csv header %q", lines[0])
	}
	if lines[1] != "alpha,42,1.500" {
		t.Fatalf("csv row %q", lines[1])
	}
}

func TestEmptyTableRenders(t *testing.T) {
	tb := &Table{ID: "X", Title: "empty", Columns: []string{"a"}}
	if !strings.Contains(tb.String(), "empty") {
		t.Fatal("empty table failed to render")
	}
}

// renderOracle is the renderer String replaced, one fmt call a cell: the
// reference the one-buffer renderer must match byte for byte.
func renderOracle(t *Table) string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	if t.Note != "" {
		fmt.Fprintf(&b, "   %s\n", t.Note)
	}
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) string {
		var l strings.Builder
		for i, c := range cells {
			if i > 0 {
				l.WriteString("  ")
			}
			fmt.Fprintf(&l, "%-*s", widths[i], c)
		}
		return strings.TrimRight(l.String(), " ")
	}
	fmt.Fprintln(&b, line(t.Columns))
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	fmt.Fprintln(&b, line(sep))
	for _, row := range t.Rows {
		fmt.Fprintln(&b, line(row))
	}
	fmt.Fprintln(&b)
	return b.String()
}

// cellOracle is the cell formatting AddRow replaced.
func cellOracle(v any) string {
	if x, ok := v.(float64); ok {
		return fmt.Sprintf("%.3f", x)
	}
	return fmt.Sprintf("%v", v)
}

// TestRenderMatchesOracle renders random tables — multibyte, empty and
// space-padded cells, empty columns, rows shorter than the header, no
// note — both ways and requires the same bytes.
func TestRenderMatchesOracle(t *testing.T) {
	src := rand.New(rand.NewPCG(1, 2))
	pieces := []string{"", " ", "  ", "a", "bc", "def", "é", "ü ", "日本", "x y", "--", "  lead", "trail  ", "0.500", "12345678"}
	cell := func() string {
		var b strings.Builder
		for range src.IntN(4) {
			b.WriteString(pieces[src.IntN(len(pieces))])
		}
		return b.String()
	}
	for n := 0; n < 2000; n++ {
		tb := &Table{ID: cell(), Title: cell()}
		if src.IntN(2) == 0 {
			tb.Note = cell()
		}
		for range src.IntN(6) {
			tb.Columns = append(tb.Columns, cell())
		}
		for range src.IntN(5) {
			row := make([]string, src.IntN(len(tb.Columns)+1))
			for i := range row {
				row[i] = cell()
			}
			tb.Rows = append(tb.Rows, row)
		}
		want := renderOracle(tb)
		if got := tb.String(); got != want {
			t.Fatalf("table %d (%q, rows %q) renders\n%q\nwant\n%q", n, tb.Columns, tb.Rows, got, want)
		}
		var b strings.Builder
		if err := tb.Render(&b); err != nil || b.String() != want {
			t.Fatalf("table %d: Render wrote %q (%v), want %q", n, b.String(), err, want)
		}
	}
}

// TestAddRowMatchesOracle formats values of every type a table is given,
// and a few it is not, both ways.
func TestAddRowMatchesOracle(t *testing.T) {
	values := []any{
		"", "plain", "é 日本", " pad ",
		0, -1, 7, 1 << 30, math.MinInt32,
		int64(0), int64(-42), int64(math.MaxInt64), int64(math.MinInt64),
		0.0, -0.0, math.Copysign(0, -1), 0.0005, 0.0004999, -0.0005, 1.5, 2.675, 1e21, -1e-7,
		math.Inf(1), math.Inf(-1), math.NaN(), math.MaxFloat64, math.SmallestNonzeroFloat64,
		true, uint64(9), int32(-3), float32(0.1), []int{1, 2}, nil,
	}
	src := rand.New(rand.NewPCG(3, 4))
	for range 2000 {
		values = append(values, src.Int(), src.Int64()-src.Int64(), src.NormFloat64()*math.Pow(10, float64(src.IntN(20)-10)))
	}
	tb := &Table{}
	tb.AddRow(values...)
	for i, v := range values {
		if got, want := tb.Rows[0][i], cellOracle(v); got != want {
			t.Errorf("AddRow(%T %v) = %q, want %q", v, v, got, want)
		}
	}
}
