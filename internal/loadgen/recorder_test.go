package loadgen_test

// The bounded recorder lives in internal/stats; its tests stay here,
// under the names the replay goldens were first pinned with: the
// byte-identical CSV/JSON results rest on exactly these properties
// (integer quantiles, bounded from above, capped at the maximum).

import (
	"sort"
	"testing"

	"repro/internal/rng"
	"repro/internal/stats"
)

// exactQuantile is the brute-force nearest-rank quantile the recorder's
// bucketed answer is checked against.
func exactQuantile(sorted []int64, q float64) int64 {
	n := len(sorted)
	rank := int(q * float64(n))
	if float64(rank) < q*float64(n) {
		rank++
	}
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1]
}

// The recorder must bound every quantile from above with relative error
// at most 1/16 (its bucket width), across distributions that stress both
// the unit buckets and the log-linear range.
func TestRecorderQuantileVsBruteForce(t *testing.T) {
	distributions := map[string]func(src *rng.Source) int64{
		"uniform-small": func(src *rng.Source) int64 { return int64(src.Intn(64)) },
		"uniform-wide":  func(src *rng.Source) int64 { return int64(src.Intn(50_000_000)) },
		"exponential":   func(src *rng.Source) int64 { return int64(src.ExpFloat64() * 5e6) },
		"bimodal": func(src *rng.Source) int64 {
			if src.Bool() {
				return 1_000 + int64(src.Intn(100))
			}
			return 80_000_000 + int64(src.Intn(1_000_000))
		},
	}
	names := make([]string, 0, len(distributions))
	for name := range distributions {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		draw := distributions[name]
		t.Run(name, func(t *testing.T) {
			src := rng.New(11)
			rec := stats.NewLatencyRecorder()
			vals := make([]int64, 0, 5000)
			for i := 0; i < 5000; i++ {
				v := draw(src)
				vals = append(vals, v)
				rec.Observe(v)
			}
			sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
			for _, q := range []float64{0.01, 0.25, 0.50, 0.90, 0.95, 0.99, 0.999, 1.0} {
				exact := exactQuantile(vals, q)
				got := rec.Quantile(q)
				if got < exact {
					t.Fatalf("q=%v: recorder %d below exact %d (must bound from above)", q, got, exact)
				}
				if limit := exact + exact/16 + 1; got > limit {
					t.Fatalf("q=%v: recorder %d exceeds exact %d by more than 1/16", q, got, exact)
				}
			}
			if got, want := rec.Count(), int64(len(vals)); got != want {
				t.Fatalf("Count = %d, want %d", got, want)
			}
			if got, want := rec.Max(), vals[len(vals)-1]; got != want {
				t.Fatalf("Max = %d, want %d", got, want)
			}
		})
	}
}

func TestRecorderEmptyAndClamp(t *testing.T) {
	rec := stats.NewLatencyRecorder()
	if rec.Quantile(0.99) != 0 || rec.Max() != 0 || rec.Count() != 0 {
		t.Fatal("empty recorder must report zeros")
	}
	rec.Observe(-5)
	if rec.Quantile(0.5) != 0 || rec.Max() != 0 || rec.Count() != 1 {
		t.Fatal("negative observation must clamp to zero")
	}
}
