// Package stats provides the measurement primitives used by the VFPGA
// experiments: sample accumulators, time-weighted averages (for
// quantities like "fraction of CLBs in use"), and the bounded latency
// recorder.
//
// All statistics operate on virtual time expressed as int64 nanoseconds,
// matching the simulation kernel; nothing here touches the wall clock.
package stats

import (
	"fmt"
	"math"
	"slices"
	"sort"
)

// Sample accumulates scalar observations and reports summary statistics.
type Sample struct {
	n      int64
	sum    float64
	max    float64
	values []float64 // retained only when keep is true
	keep   bool
	sorted bool // values is in ascending order (no Observe since the last Quantile)
}

// NewSample returns an empty Sample. If keepValues is true the individual
// observations are retained so that quantiles can be computed.
func NewSample(keepValues bool) *Sample {
	return &Sample{max: math.Inf(-1), keep: keepValues}
}

// Observe records one observation.
func (s *Sample) Observe(v float64) {
	s.n++
	s.sum += v
	if v > s.max {
		s.max = v
	}
	if s.keep {
		s.values = append(s.values, v)
		s.sorted = false
	}
}

// Reserve makes room for n more retained observations, so a caller that
// knows its sample size up front pays for one array instead of append's
// doublings. It is a no-op on a Sample that does not retain values.
func (s *Sample) Reserve(n int) {
	if s.keep {
		s.values = slices.Grow(s.values, n)
	}
}

// Reset empties the sample to the state NewSample returns, keeping the
// retained values' array for the next observations.
func (s *Sample) Reset() {
	*s = Sample{max: math.Inf(-1), values: s.values[:0], keep: s.keep}
}

// Count returns the number of observations.
func (s *Sample) Count() int64 { return s.n }

// Mean returns the arithmetic mean, or 0 if there are no observations.
func (s *Sample) Mean() float64 {
	if s.n == 0 {
		return 0
	}
	return s.sum / float64(s.n)
}

// Max returns the largest observation, or 0 if there are none.
func (s *Sample) Max() float64 {
	if s.n == 0 {
		return 0
	}
	return s.max
}

// Quantile returns the q-quantile (0 <= q <= 1) using nearest-rank on the
// retained values. It panics if the sample was not created with
// keepValues, and returns 0 for an empty sample. The retained values are
// sorted in place, once per run of Quantile calls between observations
// (nothing exposes their insertion order), so like Observe it needs the
// caller's exclusive access.
func (s *Sample) Quantile(q float64) float64 {
	if !s.keep {
		panic("stats: Quantile on Sample without retained values")
	}
	if len(s.values) == 0 {
		return 0
	}
	if !s.sorted {
		sort.Float64s(s.values)
		s.sorted = true
	}
	idx := int(math.Ceil(q*float64(len(s.values)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(s.values) {
		idx = len(s.values) - 1
	}
	return s.values[idx]
}

// TimeWeighted tracks the time-weighted average of a piecewise-constant
// quantity, e.g. the number of busy CLBs. Set must be called with
// non-decreasing timestamps.
type TimeWeighted struct {
	lastT    int64
	lastV    float64
	area     float64
	start    int64
	started  bool
	maxValue float64
}

// Set records that the quantity changed to v at virtual time t (ns).
func (w *TimeWeighted) Set(t int64, v float64) {
	if !w.started {
		w.start, w.lastT, w.lastV, w.started = t, t, v, true
		w.maxValue = v
		return
	}
	if t < w.lastT {
		panic(fmt.Sprintf("stats: TimeWeighted.Set time went backwards: %d < %d", t, w.lastT))
	}
	w.area += w.lastV * float64(t-w.lastT)
	w.lastT, w.lastV = t, v
	if v > w.maxValue {
		w.maxValue = v
	}
}

// Max returns the maximum value observed so far.
func (w *TimeWeighted) Max() float64 { return w.maxValue }

// Average returns the time-weighted average over [start, t]. If no time
// has elapsed it returns the current value.
func (w *TimeWeighted) Average(t int64) float64 {
	if !w.started || t <= w.start {
		return w.lastV
	}
	area := w.area + w.lastV*float64(t-w.lastT)
	return area / float64(t-w.start)
}
