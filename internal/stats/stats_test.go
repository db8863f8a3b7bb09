package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestCounter(t *testing.T) {
	var c Counter
	if c.Value() != 0 {
		t.Fatalf("zero counter = %d", c.Value())
	}
	c.Inc()
	c.Inc()
	if c.Value() != 2 {
		t.Fatalf("counter = %d, want 2", c.Value())
	}
}

func TestSampleBasics(t *testing.T) {
	s := NewSample(false)
	for _, v := range []float64{1, 2, 3, 4} {
		s.Observe(v)
	}
	if s.Count() != 4 {
		t.Fatalf("count = %d", s.Count())
	}
	if s.Mean() != 2.5 {
		t.Fatalf("mean = %v", s.Mean())
	}
	if s.Max() != 4 {
		t.Fatalf("max = %v", s.Max())
	}
}

func TestEmptySample(t *testing.T) {
	s := NewSample(true)
	if s.Mean() != 0 || s.Max() != 0 {
		t.Fatal("empty sample statistics should all be zero")
	}
	if s.Quantile(0.5) != 0 {
		t.Fatal("empty sample quantile should be zero")
	}
}

func TestSampleQuantile(t *testing.T) {
	s := NewSample(true)
	for i := 1; i <= 100; i++ {
		s.Observe(float64(i))
	}
	if got := s.Quantile(0.5); got != 50 {
		t.Fatalf("p50 = %v, want 50", got)
	}
	if got := s.Quantile(0.99); got != 99 {
		t.Fatalf("p99 = %v, want 99", got)
	}
	if got := s.Quantile(0); got != 1 {
		t.Fatalf("p0 = %v, want 1", got)
	}
	if got := s.Quantile(1); got != 100 {
		t.Fatalf("p100 = %v, want 100", got)
	}
}

// TestQuantileInterleavedWithObserve: Quantile sorts the retained values
// in place and remembers that it did, so an Observe after a Quantile
// must unset the mark — every answer equals the sort-a-copy reference —
// and a run of Quantile calls on an unchanged sample sorts once.
func TestQuantileInterleavedWithObserve(t *testing.T) {
	src := rand.New(rand.NewSource(3))
	s := NewSample(true)
	s.Reserve(500)
	var all []float64
	for i := 0; i < 500; i++ {
		v := src.Float64() * 1000
		s.Observe(v)
		all = append(all, v)
		if i%7 != 0 {
			continue
		}
		ref := append([]float64(nil), all...)
		sort.Float64s(ref)
		for _, q := range []float64{0, 0.5, 0.95, 0.99, 1} {
			idx := int(math.Ceil(q*float64(len(ref)))) - 1
			if idx < 0 {
				idx = 0
			}
			if got := s.Quantile(q); got != ref[idx] {
				t.Fatalf("after %d observations q=%v: got %v, want %v", i+1, q, got, ref[idx])
			}
		}
	}
	if s.Mean() == 0 || s.Count() != 500 {
		t.Fatal("moments disturbed by the in-place sort")
	}
	if allocs := testing.AllocsPerRun(10, func() { s.Quantile(0.5); s.Quantile(0.99) }); allocs != 0 {
		t.Fatalf("Quantile on an unchanged sample allocates %.0f objects", allocs)
	}
	NewSample(false).Reserve(10) // no-op without retention
}

// TestSampleReset: a reset sample answers as a new one, before and after
// the same observations, keeps its retention and, within the array it
// held, observes without allocating.
func TestSampleReset(t *testing.T) {
	vals := []float64{-3, 7, 2.5, 7, -1}
	for _, keep := range []bool{false, true} {
		s := NewSample(keep)
		for _, v := range []float64{100, -100, 4} {
			s.Observe(v)
		}
		if keep {
			s.Quantile(0.5) // leaves the values sorted
		}
		s.Reset()
		fresh := NewSample(keep)
		if s.Count() != 0 || s.Mean() != 0 || s.Max() != 0 {
			t.Fatalf("keep=%v: reset sample reads count %d, mean %v, max %v", keep, s.Count(), s.Mean(), s.Max())
		}
		allocs := testing.AllocsPerRun(1, func() {
			s.Reset()
			for _, v := range vals {
				s.Observe(v)
			}
		})
		for _, v := range vals {
			fresh.Observe(v)
		}
		if s.Count() != fresh.Count() || s.Mean() != fresh.Mean() || s.Max() != fresh.Max() {
			t.Errorf("keep=%v: reset sample reads %d/%v/%v, a new one %d/%v/%v", keep,
				s.Count(), s.Mean(), s.Max(), fresh.Count(), fresh.Mean(), fresh.Max())
		}
		if keep {
			for _, q := range []float64{0, 0.5, 1} {
				if got, want := s.Quantile(q), fresh.Quantile(q); got != want {
					t.Errorf("reset sample q=%v: %v, a new one %v", q, got, want)
				}
			}
		}
		if keep && allocs != 0 {
			t.Errorf("observing into a reset sample allocates %.0f objects", allocs)
		}
	}
}

func TestQuantileWithoutRetentionPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Quantile without retained values did not panic")
		}
	}()
	s := NewSample(false)
	s.Observe(1)
	s.Quantile(0.5)
}

func TestSampleMeanProperty(t *testing.T) {
	f := func(raw []float64) bool {
		s := NewSample(false)
		sum := 0.0
		n := 0
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e9 {
				continue
			}
			s.Observe(v)
			sum += v
			n++
		}
		if n == 0 {
			return s.Mean() == 0
		}
		return math.Abs(s.Mean()-sum/float64(n)) < 1e-6*(1+math.Abs(sum))
	}
	if err := quick.Check(f, &quick.Config{Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

func TestTimeWeightedAverage(t *testing.T) {
	var w TimeWeighted
	w.Set(0, 10)
	w.Set(100, 20) // 10 for 100ns
	w.Set(300, 0)  // 20 for 200ns
	// average over [0,400]: (10*100 + 20*200 + 0*100)/400 = 12.5
	if got := w.Average(400); got != 12.5 {
		t.Fatalf("average = %v, want 12.5", got)
	}
	if w.Max() != 20 {
		t.Fatalf("max = %v, want 20", w.Max())
	}
}

func TestTimeWeightedBackwardsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("backwards time did not panic")
		}
	}()
	var w TimeWeighted
	w.Set(100, 1)
	w.Set(50, 2)
}

func TestTimeWeightedNoElapsed(t *testing.T) {
	var w TimeWeighted
	w.Set(5, 7)
	if got := w.Average(5); got != 7 {
		t.Fatalf("zero-width average = %v, want current value 7", got)
	}
}

func TestTimeWeightedConstantProperty(t *testing.T) {
	f := func(v float64, span uint16) bool {
		if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e300 {
			return true
		}
		var w TimeWeighted
		w.Set(0, v)
		end := int64(span) + 1
		return w.Average(end) == v
	}
	if err := quick.Check(f, &quick.Config{Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}
