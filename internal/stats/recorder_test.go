package stats

import (
	"math"
	"math/rand"
	"testing"
	"unsafe"
)

// fixedRecorder is the recorder with every bucket always present, as it
// was before it kept a window: the oracle whose quantiles the windowed
// recorder must return bit for bit.
type fixedRecorder struct {
	counts [numBuckets]int64
	n, max int64
}

func (f *fixedRecorder) observe(v int64) {
	if v < 0 {
		v = 0
	}
	f.counts[bucketIndex(v)]++
	f.n++
	if v > f.max {
		f.max = v
	}
}

func (f *fixedRecorder) quantile(q float64) int64 {
	if f.n == 0 {
		return 0
	}
	rank := int64(q * float64(f.n))
	if float64(rank) < q*float64(f.n) {
		rank++
	}
	rank = min(max(rank, 1), f.n)
	var seen int64
	for idx, c := range f.counts {
		seen += c
		if seen >= rank {
			return min(bucketUpper(idx), f.max)
		}
	}
	return f.max
}

// checkAgainstOracle feeds stream to a recorder and to the oracle and
// requires equal quantiles at q = 0, 1/200, …, 1 — after every value of
// a short stream, at the end of a long one — and equal Count, Sum and
// Max at the end.
func checkAgainstOracle(t *testing.T, name string, stream []int64) {
	t.Helper()
	r, f := NewLatencyRecorder(), new(fixedRecorder)
	var sum int64
	compare := func(after int) {
		for k := 0; k <= 200; k++ {
			q := float64(k) / 200
			if got, want := r.Quantile(q), f.quantile(q); got != want {
				t.Fatalf("%s: after %d values q=%v: recorder %d, oracle %d (window lo %d len %d)",
					name, after, q, got, want, r.lo, len(r.counts))
			}
		}
	}
	compare(0)
	for i, v := range stream {
		r.Observe(v)
		f.observe(v)
		sum += max(v, 0)
		if len(stream) <= 64 {
			compare(i + 1)
		}
	}
	compare(len(stream))
	if r.Count() != f.n || r.Max() != f.max || r.Sum() != sum {
		t.Fatalf("%s: count/max/sum %d/%d/%d, want %d/%d/%d",
			name, r.Count(), r.Max(), r.Sum(), f.n, f.max, sum)
	}
	if len(r.counts) > numBuckets || cap(r.counts) > numBuckets {
		t.Fatalf("%s: window len %d cap %d exceeds %d buckets", name, len(r.counts), cap(r.counts), numBuckets)
	}
}

// TestRecorderMatchesFixedArray holds the windowed recorder to the
// fixed-array oracle over random streams and the adversarial ones: a
// descending stream (every value widens the window to the left), the
// edges of the layout — 0, the 15/16 seam between the unit buckets and
// the log-linear ones, MaxInt64 in the last bucket — and negative values,
// which clamp to 0.
func TestRecorderMatchesFixedArray(t *testing.T) {
	src := rand.New(rand.NewSource(41))
	for s := 0; s < 20; s++ {
		n := 1 + src.Intn(3000)
		stream := make([]int64, n)
		for i := range stream {
			switch s % 4 {
			case 0: // one decade of service times
				stream[i] = 1e6 + src.Int63n(9e6)
			case 1: // exponential, wide
				stream[i] = int64(src.ExpFloat64() * 5e6)
			case 2: // log-uniform over the whole layout
				stream[i] = src.Int63() >> uint(src.Intn(63))
			default: // small, crossing the unit buckets
				stream[i] = src.Int63n(40) - 4
			}
		}
		checkAgainstOracle(t, "random", stream)
	}

	var desc []int64
	for v := int64(math.MaxInt64); v > 0; v = v / 3 * 2 {
		desc = append(desc, v)
	}
	desc = append(desc, 0)
	checkAgainstOracle(t, "descending", desc)

	var ascending []int64
	for i := len(desc) - 1; i >= 0; i-- {
		ascending = append(ascending, desc[i])
	}
	checkAgainstOracle(t, "ascending", ascending)

	edges := [][]int64{
		{0},
		{15, 16},
		{16, 15},
		{16, 15, 0, 17, 31, 32},
		{math.MaxInt64},
		{math.MaxInt64, 0},
		{0, math.MaxInt64, math.MaxInt64 - 1, 1},
		{-1},
		{-5, math.MinInt64, 3, -1},
		{1000, 999, 1001, 1 << 20, 1 << 10, 1 << 30, 15},
	}
	for _, stream := range edges {
		checkAgainstOracle(t, "edges", stream)
	}

	// Widening in both directions many times over, alternating sides.
	var zigzag []int64
	for k := 0; k < 60; k++ {
		zigzag = append(zigzag, int64(1)<<(30+k%30), int64(1)<<(30-k%30))
	}
	checkAgainstOracle(t, "zigzag", zigzag)
}

// An Observe that lands inside the window allocates nothing, whether the
// window is the inline array or one Observe grew onto the heap.
func TestRecorderObserveInWindowAllocatesNothing(t *testing.T) {
	r := NewLatencyRecorder()
	r.Observe(1000)
	r.Observe(1010)
	if allocs := testing.AllocsPerRun(100, func() { r.Observe(1005) }); allocs != 0 {
		t.Fatalf("Observe in the inline window allocates %.0f objects", allocs)
	}
	r.Observe(1 << 20)
	if len(r.counts) <= len(r.inline) {
		t.Fatalf("window of %d buckets did not leave the inline array", len(r.counts))
	}
	if allocs := testing.AllocsPerRun(100, func() { r.Observe(50_000) }); allocs != 0 {
		t.Fatalf("Observe in a grown window allocates %.0f objects", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() { r.Quantile(0.99) }); allocs != 0 {
		t.Fatalf("Quantile allocates %.0f objects", allocs)
	}
}

// An empty recorder fits a 128-byte size class: a pool makes two, and
// every per-stage histogram added to it pays this again.
func TestRecorderEmptySizeBudget(t *testing.T) {
	if size := unsafe.Sizeof(LatencyRecorder{}); size > 128 {
		t.Fatalf("an empty LatencyRecorder is %d bytes, budget 128", size)
	}
	if allocs := testing.AllocsPerRun(100, func() { sinkRecorder = NewLatencyRecorder() }); allocs != 1 {
		t.Fatalf("NewLatencyRecorder allocates %.0f objects, want 1", allocs)
	}
}

var sinkRecorder *LatencyRecorder
