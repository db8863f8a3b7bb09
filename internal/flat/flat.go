// Package flat holds the substrate's flat-array idioms, each stated
// once: a scratch array sized per call (Zeroed), a table emptied for its
// owner's next job (Emptied), records cut from an array their owner
// keeps (Carve, Rewind), a topological sort over a
// working set its owner keeps (Order), a bounded fan-out over
// indices (FanOut, Map), a bounded memo of one build per key (Memo) and
// a stack of dead values kept for their next user (FreeList). It imports
// nothing of the module, so every layer may use it.
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

// Emptied clears s, so that an owner renewed for its next job holds
// nothing of the last, and returns it at length 0 over the same array.
func Emptied[T any](s []T) []T {
	clear(s)
	return s[:0]
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

// Order is the working set of a topological sort (Kahn's algorithm) of
// nodes 0..n-1, kept by its owner from sort to sort: a sort no larger
// than the owner's largest so far allocates nothing. The owner lists its
// graph's edges twice, in the same order both times: Reset(n), Count
// for every edge, Counted, Place for every edge, then Sort. An edge from
// f to t says f must come before t.
//
// The order is exact, not merely valid: the nodes with no in-edge come
// first, in index order; after them the order is its own FIFO queue, and
// a node's dependents join it in the order their edges were listed, each
// once its last in-edge is ordered. A node on a cycle, or downstream of
// one, is never ordered.
type Order[T ~int] struct {
	indeg []int // a node's in-edges not yet ordered; 0 once it is
	// start[f]:start[f+1] indexes f's dependents in succ once placed.
	// Counting runs two ahead (start[f+2]) so that after the sum
	// start[f+1] is where f's dependents begin, and placing advances it
	// to where they end: no fill array.
	start []int
	succ  []T
}

// Reset starts a sort of n nodes with no edges.
func (o *Order[T]) Reset(n int) {
	o.indeg = Zeroed(o.indeg, n)
	o.start = Zeroed(o.start, n+2)
}

// Count records the edge from f to t in the counting pass.
func (o *Order[T]) Count(f, t T) {
	o.indeg[t]++
	o.start[f+2]++
}

// Counted ends the counting pass and sizes the successor list.
func (o *Order[T]) Counted() {
	for i := 2; i < len(o.start); i++ {
		o.start[i] += o.start[i-1]
	}
	o.succ = Zeroed(o.succ, o.start[len(o.start)-1])
}

// Place records the edge from f to t in the placing pass, which lists
// the edges Count did, in the same order.
func (o *Order[T]) Place(f, t T) {
	i := o.start[f+1]
	o.succ[i] = t
	o.start[f+1] = i + 1
}

// Sort appends the order to dst, grown once to hold every node, and
// returns it; the nodes it leaves out are those on or after a cycle.
func (o *Order[T]) Sort(dst []T) []T {
	dst = slices.Grow(dst, len(o.indeg))
	head := len(dst)
	for i, d := range o.indeg {
		if d == 0 {
			dst = append(dst, T(i))
		}
	}
	for ; head < len(dst); head++ {
		f := dst[head]
		for _, t := range o.succ[o.start[f]:o.start[f+1]] {
			o.indeg[t]--
			if o.indeg[t] == 0 {
				dst = append(dst, t)
			}
		}
	}
	return dst
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
