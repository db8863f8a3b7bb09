// Package flat holds the substrate's flat-array idioms, each stated
// once: a scratch array sized per call (Zeroed), records cut from an
// array their owner keeps (Carve, Rewind), and a bounded fan-out over
// indices (FanOut, Map). It imports nothing of the module, so every
// layer may use it.
package flat

import (
	"slices"
	"sync"
	"sync/atomic"
)

// Zeroed returns s at length n, all zero — what make would return —
// reusing its array when it is large enough.
func Zeroed[T any](s []T, n int) []T {
	s = slices.Grow(s[:0], n)[:n]
	clear(s)
	return s
}

// Carve cuts the next n elements from *buf, capped at n so that an
// append to the result can never reach its neighbour. When fewer than n
// are left it takes a new array of max(n, chunk) elements and leaves the
// old one to the elements already cut from it. Carving is append-only
// within a job: no element is handed out twice while its job lives, so
// a stale pointer into an array never aliases a live record. Only the
// owner's renewal rewinds *buf (Rewind), once the job that held its
// elements is dead.
func Carve[T any](buf *[]T, n, chunk int) []T {
	b := *buf
	if cap(b)-len(b) < n {
		b = make([]T, 0, max(n, chunk))
	}
	*buf = b[:len(b)+n]
	return b[len(b) : len(b)+n : len(b)+n]
}

// Rewind returns buf emptied, with room for the n elements the last job
// carved in one array: buf's own when it holds them, a new one once
// otherwise, so an owner's jobs of one size carve without allocating.
func Rewind[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, 0, n)
	}
	return buf[:0]
}

// FanOut calls fn(k) for every k in [0, n) on up to workers goroutines,
// the caller's among them, and returns when every call has. A panicking
// call does not stop the others: once all have returned, the panic of
// the least k is raised again on the caller's goroutine.
func FanOut(n, workers int, fn func(k int)) {
	workers = max(1, min(workers, n))
	panics := make([]any, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	work := func() {
		defer wg.Done()
		for k := int(next.Add(1) - 1); k < n; k = int(next.Add(1) - 1) {
			func() {
				defer func() { panics[k] = recover() }()
				fn(k)
			}()
		}
	}
	wg.Add(workers)
	for w := 1; w < workers; w++ {
		go work()
	}
	work()
	wg.Wait()
	for _, p := range panics {
		if p != nil {
			panic(p)
		}
	}
}

// Map is FanOut for calls that return a value: it returns fn(i) for
// every i in [0, n) in index order, or nil and the error of the least i
// that failed — not the first to fail in time, so the outcome does not
// depend on scheduling. Every call runs even when one fails.
func Map[T any](n, workers int, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	errs := make([]error, n)
	FanOut(n, workers, func(i int) { out[i], errs[i] = fn(i) })
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}
