package main

import (
	"math"
	"testing"
	"time"
)

func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n    int
		want float64
		p    float64
	}{
		{20000, 0.99, 0.99}, // 200 beyond p99
		{1000, 0.99, 0.99},  // exactly 10 beyond
		{999, 0.99, 0.95},   // 9.99 beyond p99: not enough
		{200, 0.99, 0.95},   // exactly 10 beyond p95
		{199, 0.99, 0.90},
		{150, 0.90, 0.90}, // want caps it even though n would allow no more
		{20000, 0.95, 0.95},
		{99, 0.95, 0.75},
		{40, 0.75, 0.75},
		{39, 0.75, 0.50},
		{20, 0.99, 0.50},
		{3, 0.99, 0.50}, // too few for any tail: the median
	}
	for _, c := range cases {
		if got := tailPercentile(c.n, c.want); got != c.p {
			t.Errorf("tailPercentile(%d, %v) = %v, want %v", c.n, c.want, got, c.p)
		}
	}
}

func TestQuantileIsNearestRank(t *testing.T) {
	v := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for q, want := range map[float64]float64{0: 1, 0.5: 5, 0.51: 6, 0.9: 9, 0.99: 10, 1: 10} {
		if got := quantile(v, q); got != want {
			t.Errorf("quantile(%v) = %v, want %v", q, got, want)
		}
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of nothing = %v, want 0", got)
	}
}

// The expected values are what Python prints for
// q = statistics.quantiles(v, n=4); (q[2]-q[0])/q[1].
func TestQuartileSpreadMatchesPythonQuantiles(t *testing.T) {
	cases := []struct {
		v    []float64
		want float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, (8.25 - 2.75) / 5.5},
		{[]float64{10, 10, 10, 10}, 0},
		{[]float64{3, 1, 2}, (3.0 - 1.0) / 2.0},
		{[]float64{2.1, 2.0, 2.2, 1.9, 2.05, 2.3, 1.95, 2.15, 2.0, 2.1}, (2.1625 - 1.9875) / 2.075},
	}
	for _, c := range cases {
		if got := quartileSpread(c.v); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quartileSpread(%v) = %v, want %v", c.v, got, c.want)
		}
	}
}

func TestFailedOpsMissTheSLO(t *testing.T) {
	log := &opLog{sloMS: 5}
	log.add(1*time.Millisecond, true)
	log.add(9*time.Millisecond, true)  // too slow
	log.add(1*time.Millisecond, false) // fast, but failed
	if log.failed != 1 || log.missed != 2 {
		t.Fatalf("failed %d missed %d, want 1 and 2", log.failed, log.missed)
	}
	m := endToEnd(log, usage{at: time.Unix(0, 0)}, usage{at: time.Unix(2, 0), cpu: 1})
	if got := m["throughput_ops_s"].Value; got != 1 { // 2 completed ops in 2 s
		t.Errorf("throughput_ops_s = %v, want 1", got)
	}
	if got := m["ops_per_cpu_s"].Value; got != 2 {
		t.Errorf("ops_per_cpu_s = %v, want 2", got)
	}
}

func TestDealerStopsOnACycleBoundary(t *testing.T) {
	d := &dealer{cycle: 4, deadline: time.Now().Add(-time.Hour)} // already past
	n := 0
	for {
		if _, ok := d.draw(); !ok {
			break
		}
		n++
	}
	if n != 4 {
		t.Errorf("past deadline the dealer dealt %d ops, want one whole cycle of 4", n)
	}
	d = &dealer{cycle: 4, deadline: time.Now().Add(time.Hour)}
	for i := 0; i < 10; i++ {
		if got, ok := d.draw(); !ok || got != i {
			t.Fatalf("draw %d = %d, %v", i, got, ok)
		}
	}
}
