package bench

import (
	"sync"

	"repro/internal/trace"
)

// parMap runs fn for every index in [0, n) and returns the results in
// index order.
//
// With jobs <= 1 (or a single item) it runs inline — exactly the serial
// path. With jobs > 1, up to jobs worker goroutines pull indices from a
// shared queue; every result and error lands in its own index slot, and
// the first error *by index* (not by completion time) is the one
// reported, so the observable outcome is independent of scheduling.
//
// Determinism contract for callers: fn must not touch state shared
// between indices. Every sweep point in this package builds its own
// sim.Kernel, engines and seeded RNG streams; the only shared structure
// is the compile cache, whose entries are pure functions of their keys.
func parMap[T any](jobs, n int, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	if jobs <= 1 || n <= 1 {
		for i := 0; i < n; i++ {
			v, err := fn(i)
			if err != nil {
				return nil, err
			}
			out[i] = v
		}
		return out, nil
	}
	if jobs > n {
		jobs = n
	}
	errs := make([]error, n)
	idx := make(chan int)
	var wg sync.WaitGroup
	wg.Add(jobs)
	for w := 0; w < jobs; w++ {
		go func() {
			defer wg.Done()
			for i := range idx {
				out[i], errs[i] = fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// fillRows is parMap specialized to the common experiment shape: each
// of the n sweep points yields exactly one row, appended to tbl in sweep
// order. It returns tbl, or the first error by index.
func fillRows(tbl *trace.Table, jobs, n int, fn func(i int) ([]any, error)) (*trace.Table, error) {
	rows, err := parMap(jobs, n, fn)
	if err != nil {
		return nil, err
	}
	for _, r := range rows {
		tbl.AddRow(r...)
	}
	return tbl, nil
}
