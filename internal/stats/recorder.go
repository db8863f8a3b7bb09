package stats

import "math/bits"

// LatencyRecorder is the repo's bounded quantile recorder: a log-linear
// bucketed accumulator of int64 nanoseconds in the HDR-histogram mold.
// Values below 16 ns land in exact unit buckets, larger values in 16
// sub-buckets per power of two, so any quantile is reported with
// relative error at most 1/16 while Observe stays O(1) and the memory
// footprint fixed — what a long-lived process needs where Sample would
// keep one float per observation forever. Quantiles come back as the
// bucket's inclusive upper bound — a deterministic integer, which is
// what lets replay results be compared byte for byte.
type LatencyRecorder struct {
	counts [960]int64 // 16 unit buckets + 59 majors x 16 minors
	n      int64
	sum    int64
	max    int64
}

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
	r.counts[bucketIndex(v)]++
	r.n++
	r.sum += v
	if v > r.max {
		r.max = v
	}
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
	for idx, c := range r.counts {
		seen += c
		if seen >= rank {
			v := bucketUpper(idx)
			if v > r.max {
				v = r.max
			}
			return v
		}
	}
	return r.max
}
