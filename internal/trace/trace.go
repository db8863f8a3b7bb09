// Package trace holds the result tables the experiment harness produces
// and their renderers: aligned text for the terminal, CSV for analysis.
package trace

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"strings"
	"unicode/utf8"
)

// Table is one experiment result: the rows of a paper table or the series
// of a paper figure.
type Table struct {
	ID      string // experiment id, e.g. "T1" or "F3"
	Title   string
	Note    string // one-line interpretation (the claim being tested)
	Columns []string
	Rows    [][]string
}

// AddRow appends a row: a string as it is, an int or int64 in decimal,
// a float64 with three decimals, and anything else as %v formats it.
func (t *Table) AddRow(values ...any) {
	row := make([]string, len(values))
	for i, v := range values {
		switch x := v.(type) {
		case string:
			row[i] = x
		case int:
			row[i] = strconv.Itoa(x)
		case int64:
			row[i] = strconv.FormatInt(x, 10)
		case float64: // as %.3f, in one allocation
			var buf [32]byte
			row[i] = string(strconv.AppendFloat(buf[:0], x, 'f', 3, 64))
		default:
			row[i] = fmt.Sprint(x)
		}
	}
	t.Rows = append(t.Rows, row)
}

// Render writes the table as aligned text: a header line, the note, the
// column names over a rule of dashes, one line per row and a blank line.
// Every cell is left-aligned and padded to its column's width, the most
// bytes of any cell in it; padding counts runes, so a multibyte cell
// pads short. Lines carry no trailing spaces.
func (t *Table) Render(w io.Writer) error {
	_, err := io.WriteString(w, t.String())
	return err
}

// String renders the table as Render writes it, into one buffer.
func (t *Table) String() string {
	var wbuf [16]int
	widths := wbuf[:0]
	for _, c := range t.Columns {
		widths = append(widths, len(c))
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	lineLen := 1
	for _, w := range widths {
		lineLen += w + 2
	}
	var b strings.Builder
	b.Grow(len(t.ID) + len(t.Title) + len(t.Note) + 16 + (len(t.Rows)+2)*lineLen)
	b.WriteString("== ")
	b.WriteString(t.ID)
	b.WriteString(": ")
	b.WriteString(t.Title)
	b.WriteString(" ==\n")
	if t.Note != "" {
		b.WriteString("   ")
		b.WriteString(t.Note)
		b.WriteByte('\n')
	}
	writeLine(&b, t.Columns, widths)
	writeRule(&b, widths)
	for _, row := range t.Rows {
		writeLine(&b, row, widths)
	}
	b.WriteByte('\n')
	return b.String()
}

// writeLine writes one line of cells, each padded to its width with
// spaces and two spaces between them, and ends it with a newline; the
// spaces that would end the line are not written.
func writeLine(b *strings.Builder, cells []string, widths []int) {
	// The line ends with the last cell with something but spaces in it.
	last := len(cells) - 1
	for last >= 0 && strings.TrimRight(cells[last], " ") == "" {
		last--
	}
	for i := 0; i < last; i++ {
		b.WriteString(cells[i])
		pad(b, ' ', widths[i]-utf8.RuneCountInString(cells[i])+2)
	}
	if last >= 0 {
		b.WriteString(strings.TrimRight(cells[last], " "))
	}
	b.WriteByte('\n')
}

// writeRule writes the line under the column names: a run of dashes as
// wide as each column, two spaces between them.
func writeRule(b *strings.Builder, widths []int) {
	last := len(widths) - 1
	for last >= 0 && widths[last] == 0 {
		last--
	}
	for i := 0; i <= last; i++ {
		if i > 0 {
			b.WriteString("  ")
		}
		pad(b, '-', widths[i])
	}
	b.WriteByte('\n')
}

// pad writes n copies of c; none when n is not positive.
func pad(b *strings.Builder, c byte, n int) {
	for ; n > 0; n-- {
		b.WriteByte(c)
	}
}

// WriteCSV writes the table as CSV with a header row.
func (t *Table) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(t.Columns); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
