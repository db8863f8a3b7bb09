package stats

import "math/bits"

// LatencyRecorder is the repo's bounded quantile recorder: a log-linear
// bucketed accumulator of int64 nanoseconds in the HDR-histogram mold.
// Values below 16 ns land in exact unit buckets, larger values in 16
// sub-buckets per power of two, so any quantile is reported with
// relative error at most 1/16 while Observe stays O(1) — what a
// long-lived process needs where Sample would keep one float per
// observation forever. Quantiles come back as the bucket's inclusive
// upper bound — a deterministic integer, which is what lets replay
// results be compared byte for byte.
//
// Of the numBuckets buckets it keeps only the window from the lowest to
// the highest bucket observed, in an inline array of 8 until the range
// outgrows it: an empty recorder is 120 bytes on a 64-bit build, and one
// whose observations fall in 8 adjacent buckets (half a power of two
// above 16 ns) holds its counts inline. A window never exceeds
// numBuckets, so the footprint stays bounded. A
// recorder may point into itself, so it must not be copied by value;
// use it through the pointer NewLatencyRecorder returns.
type LatencyRecorder struct {
	lo     int     // the bucket counts[0] counts
	counts []int64 // buckets lo .. lo+len(counts)-1; zero past len up to cap
	inline [8]int64
	n      int64
	sum    int64
	max    int64
}

// numBuckets is the full layout: 16 unit buckets + 59 majors x 16 minors.
const numBuckets = 960

// NewLatencyRecorder returns an empty recorder.
func NewLatencyRecorder() *LatencyRecorder { return &LatencyRecorder{} }

// bucketIndex maps a non-negative value to its bucket.
func bucketIndex(v int64) int {
	if v < 16 {
		return int(v)
	}
	msb := bits.Len64(uint64(v)) - 1 // >= 4
	shift := msb - 4
	minor := int(v>>shift) & 15
	return 16 + (msb-4)*16 + minor
}

// bucketUpper returns the largest value mapping to bucket idx.
func bucketUpper(idx int) int64 {
	if idx < 16 {
		return int64(idx)
	}
	major := (idx-16)/16 + 4
	minor := int64((idx - 16) % 16)
	width := int64(1) << (major - 4)
	lower := (16 + minor) << (major - 4)
	return lower + width - 1
}

// Observe records one latency. Negative values clamp to zero (they can
// only arise from arithmetic bugs upstream; the recorder stays total).
func (r *LatencyRecorder) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	i := bucketIndex(v) - r.lo
	if uint(i) >= uint(len(r.counts)) {
		i = r.widen(i + r.lo)
	}
	r.counts[i]++
	r.n++
	r.sum += v
	if v > r.max {
		r.max = v
	}
}

// widen stretches the window to take bucket idx and returns idx's slot.
// It moves the counts within the window's array while they fit, and
// otherwise into one of at least twice the size, capped at numBuckets.
func (r *LatencyRecorder) widen(idx int) int {
	if len(r.counts) == 0 {
		r.lo, r.counts = idx, r.inline[:1]
		return 0
	}
	lo := min(r.lo, idx)
	n := max(r.lo+len(r.counts), idx+1) - lo
	old := r.counts
	if n <= cap(old) {
		r.counts = old[:n]
	} else {
		r.counts = make([]int64, n, min(max(n, 2*cap(old)), numBuckets))
	}
	shift := r.lo - lo
	copy(r.counts[shift:], old)
	clear(r.counts[:shift])
	r.lo = lo
	return idx - lo
}

// Count returns the number of observations.
func (r *LatencyRecorder) Count() int64 { return r.n }

// Sum returns the sum of all observations in nanoseconds.
func (r *LatencyRecorder) Sum() int64 { return r.sum }

// Max returns the largest observation, or 0 when empty.
func (r *LatencyRecorder) Max() int64 { return r.max }

// Quantile returns the q-quantile (0 <= q <= 1) by nearest rank over
// the buckets: the upper bound of the bucket holding the rank-th
// observation, capped at the exact observed maximum. Returns 0 for an
// empty recorder.
func (r *LatencyRecorder) Quantile(q float64) int64 {
	if r.n == 0 {
		return 0
	}
	rank := int64(q * float64(r.n))
	if float64(rank) < q*float64(r.n) {
		rank++
	}
	if rank < 1 {
		rank = 1
	}
	if rank > r.n {
		rank = r.n
	}
	var seen int64
	for i, c := range r.counts {
		seen += c
		if seen >= rank {
			v := bucketUpper(r.lo + i)
			if v > r.max {
				v = r.max
			}
			return v
		}
	}
	return r.max
}
