package main

import (
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// metric is one reported number. N is the sample count behind a timing
// (0 for counters and ratios); it is printed and written to the result
// file but left out of the driver's contract line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int64   `json:"n,omitempty"`
}

// quantile returns the q-quantile of sorted by nearest rank — the same
// rule internal/stats uses, so the benchmark's percentiles and the
// daemon's /metrics agree on what "p99" means.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(math.Ceil(q*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

func median(v []float64) float64 { return quantile(sortedCopy(v), 0.5) }

// tailLadder is the set of percentiles a tail may be reported at.
var tailLadder = []float64{0.99, 0.95, 0.90, 0.75, 0.50}

// tailMinBeyond is how many samples must lie beyond a percentile before
// it is reported: fewer and the "tail" is a handful of outliers.
const tailMinBeyond = 10

// tailPercentile picks the percentile a workload's tail latency is
// reported at: the highest ladder entry not above want that still has at
// least tailMinBeyond of the n samples beyond it. want is fixed per
// workload so the percentile does not flip between runs of similar
// length; n only ever lowers it. With too few samples for any entry it
// returns the median.
func tailPercentile(n int, want float64) float64 {
	for _, p := range tailLadder {
		if p > want {
			continue
		}
		// 1e-9 keeps an exact count (say 1000 x 0.01) from rounding
		// down to 9.
		if int(float64(n)*(1-p)+1e-9) >= tailMinBeyond {
			return p
		}
	}
	return 0.50
}

// quartileSpread is the distance between the first and third quartile
// as a share of the median, with the quartiles Python's
// statistics.quantiles(values, n=4) gives (the "exclusive" method) — the
// steadiness figure the repeat mode prints for each metric.
func quartileSpread(values []float64) float64 {
	s := sortedCopy(values)
	n := len(s)
	if n < 2 {
		return 0
	}
	at := func(k int) float64 { // k-th of 4 cut points, exclusive method
		pos := float64(k) * float64(n+1) / 4
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	med := at(2)
	if med == 0 {
		return 0
	}
	return (at(3) - at(1)) / math.Abs(med)
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// usage is one reading of the process-wide cost counters the end-to-end
// metrics difference over the timed part.
type usage struct {
	at       time.Time
	cpu      float64
	mallocs  uint64
	bytes    uint64
	heapLive uint64
}

// startUsage opens a timed leg. It collects first, so the leg starts
// from what the program holds, not from the previous phase's garbage.
func startUsage() usage {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return usage{at: time.Now(), cpu: cpuSeconds(), mallocs: ms.Mallocs, bytes: ms.TotalAlloc, heapLive: ms.HeapAlloc}
}

// endUsage closes a timed leg. The clocks and allocation counters are
// read before the forced collection, so that collection is not charged
// to the leg; heapLive is read after it, so it is what the program still
// holds.
func endUsage() usage {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	u := usage{at: time.Now(), cpu: cpuSeconds(), mallocs: ms.Mallocs, bytes: ms.TotalAlloc}
	runtime.GC()
	runtime.ReadMemStats(&ms)
	u.heapLive = ms.HeapAlloc
	return u
}

// mallocs is the process's allocation count so far.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// opLog collects per-op outcomes. Each client goroutine fills its own and
// they are merged once the clients have stopped, so recording takes no
// lock on the timed path.
type opLog struct {
	sloMS  float64   // the workload's fixed latency limit
	latMS  []float64 // one entry per attempted op, failed ones included
	failed int64
	missed int64 // ops over sloMS; a failed op misses whatever its latency
	virt   virtAcc
}

func (l *opLog) add(lat time.Duration, ok bool) {
	ms := float64(lat) / float64(time.Millisecond)
	l.latMS = append(l.latMS, ms)
	if !ok {
		l.failed++
	}
	if !ok || ms > l.sloMS {
		l.missed++
	}
}

func (l *opLog) merge(o *opLog) {
	l.latMS = append(l.latMS, o.latMS...)
	l.failed += o.failed
	l.missed += o.missed
	l.virt.merge(&o.virt)
}

// endToEnd turns one timed leg into the whole-workload numbers every
// workload reports.
func endToEnd(log *opLog, before, after usage) map[string]metric {
	n := int64(len(log.latMS))
	ops := float64(n - log.failed)
	wall := after.at.Sub(before.at).Seconds()
	cpu := after.cpu - before.cpu
	sorted := sortedCopy(log.latMS)
	per := func(total float64) float64 {
		if ops == 0 {
			return 0
		}
		return total / ops
	}
	m := map[string]metric{
		"latency_p50_ms":   {Value: quantile(sorted, 0.5), Unit: "ms", N: n},
		"throughput_ops_s": {Value: ops / wall, Unit: "1/s", N: n},
		"allocs_per_op":    {Value: per(float64(after.mallocs - before.mallocs)), Unit: "count", N: n},
		"alloc_kb_per_op":  {Value: per(float64(after.bytes-before.bytes) / 1024), Unit: "KiB", N: n},
		"ops_per_cpu_s":    {Unit: "1/s", N: n}, // stays 0 if the CPU clock did not move
	}
	if cpu > 0 {
		m["ops_per_cpu_s"] = metric{Value: ops / cpu, Unit: "1/s", N: n}
	}
	return m
}
