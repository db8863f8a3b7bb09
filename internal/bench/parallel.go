package bench

import (
	"repro/internal/flat"
	"repro/internal/trace"
)

// fillRows is flat.Map specialized to the common experiment shape: each
// of the n sweep points yields exactly one row, appended to tbl in sweep
// order. It returns tbl, or the first error by index.
func fillRows(tbl *trace.Table, jobs, n int, fn func(i int) ([]any, error)) (*trace.Table, error) {
	rows, err := flat.Map(n, jobs, fn)
	if err != nil {
		return nil, err
	}
	for _, r := range rows {
		tbl.AddRow(r...)
	}
	return tbl, nil
}
