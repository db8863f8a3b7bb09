package rng

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at draw %d", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds produced %d identical draws", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	a := New(7)
	child := a.Split()
	// Drawing from the child must not change the parent's future stream
	// relative to a reference that splits but never draws from the child.
	ref := New(7)
	_ = ref.Split()
	for i := 0; i < 10; i++ {
		child.Uint64()
	}
	for i := 0; i < 100; i++ {
		if a.Uint64() != ref.Uint64() {
			t.Fatalf("parent stream perturbed by child draws at %d", i)
		}
	}
}

func TestIntnRange(t *testing.T) {
	s := New(3)
	for _, n := range []int{1, 2, 3, 7, 100, 1 << 20} {
		for i := 0; i < 200; i++ {
			v := s.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestFloat64Range(t *testing.T) {
	s := New(9)
	for i := 0; i < 10000; i++ {
		f := s.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 = %v out of [0,1)", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	s := New(11)
	sum := 0.0
	const n = 200000
	for i := 0; i < n; i++ {
		sum += s.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("Float64 mean %v too far from 0.5", mean)
	}
}

func TestExpFloat64Mean(t *testing.T) {
	s := New(13)
	sum := 0.0
	const n = 200000
	for i := 0; i < n; i++ {
		sum += s.ExpFloat64()
	}
	mean := sum / n
	if math.Abs(mean-1.0) > 0.02 {
		t.Fatalf("ExpFloat64 mean %v too far from 1", mean)
	}
}

func TestPermIsPermutation(t *testing.T) {
	s := New(19)
	for _, n := range []int{0, 1, 2, 5, 64} {
		p := s.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) has length %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) = %v is not a permutation", n, p)
			}
			seen[v] = true
		}
	}
}

func TestPermPropertyBased(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%50) + 1
		p := New(seed).Perm(n)
		seen := make(map[int]bool)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return len(seen) == n
	}
	if err := quick.Check(f, &quick.Config{Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

func TestMul64AgainstBig(t *testing.T) {
	f := func(a, b uint64) bool {
		hi, lo := mul64(a, b)
		// Verify via decomposition: (a*b) mod 2^64 must equal lo, and the
		// identity hi*2^64 + lo == a*b holds iff lo matches wrapped product
		// and hi matches the upper bits computed a second way.
		if lo != a*b {
			return false
		}
		hi2, _ := mul64(b, a) // commutativity
		return hi == hi2
	}
	if err := quick.Check(f, &quick.Config{Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

func TestZipfRange(t *testing.T) {
	s := New(23)
	z := NewZipf(s, 10, 1.2)
	for i := 0; i < 5000; i++ {
		v := z.Draw()
		if v < 0 || v >= 10 {
			t.Fatalf("Zipf draw %d out of range", v)
		}
	}
}

func TestZipfSkew(t *testing.T) {
	s := New(29)
	z := NewZipf(s, 20, 1.5)
	counts := make([]int, 20)
	for i := 0; i < 100000; i++ {
		counts[z.Draw()]++
	}
	if counts[0] <= counts[1] || counts[1] <= counts[5] || counts[5] <= counts[19] {
		t.Fatalf("Zipf(1.5) counts are not skewed: %v", counts)
	}
}

func TestZipfUniformWhenSZero(t *testing.T) {
	s := New(31)
	z := NewZipf(s, 8, 0)
	counts := make([]int, 8)
	const n = 80000
	for i := 0; i < n; i++ {
		counts[z.Draw()]++
	}
	for i, c := range counts {
		if math.Abs(float64(c)-n/8) > 0.08*n/8 {
			t.Fatalf("Zipf(0) bucket %d count %d deviates from uniform", i, c)
		}
	}
}

func TestZipfPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewZipf(_,0,_) did not panic")
		}
	}()
	NewZipf(New(1), 0, 1)
}

func BenchmarkUint64(b *testing.B) {
	s := New(1)
	for i := 0; i < b.N; i++ {
		s.Uint64()
	}
}

func BenchmarkZipfDraw(b *testing.B) {
	s := New(1)
	z := NewZipf(s, 1024, 1.1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		z.Draw()
	}
}
