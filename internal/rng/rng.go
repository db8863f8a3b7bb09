// Package rng provides a small, deterministic pseudo-random number
// generator used throughout the simulator.
//
// Every stochastic component in the repository (workload generators,
// placement annealing, replacement policies with random eviction, ...)
// draws from an rng.Source created from an explicit seed, so that every
// experiment is exactly reproducible. The generator is splitmix64, which
// is tiny, fast, and passes the statistical tests that matter at the
// scale of this simulator.
package rng

import "math"

// Source is a deterministic pseudo-random number generator.
// The zero value is a valid generator seeded with 0; most callers should
// use New with an explicit seed instead.
type Source struct {
	state uint64
}

// New returns a Source seeded with seed.
func New(seed uint64) *Source {
	return &Source{state: seed}
}

// Uint64 returns the next pseudo-random 64-bit value.
func (s *Source) Uint64() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Split returns a new Source whose stream is independent of s.
// It is used to give each subsystem its own stream so that adding draws
// in one subsystem does not perturb another.
func (s *Source) Split() *Source {
	return &Source{state: s.Uint64()}
}

// Intn returns a pseudo-random int in [0, n). It panics if n <= 0.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn called with n <= 0")
	}
	// Lemire's multiply-shift rejection-free approximation is overkill
	// here; simple modulo bias is negligible for the small n we use, but
	// we still use the widening multiply trick for uniformity.
	hi, _ := mul64(s.Uint64(), uint64(n))
	return int(hi)
}

// Float64 returns a pseudo-random float64 in [0, 1).
func (s *Source) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Bool returns a pseudo-random boolean.
func (s *Source) Bool() bool {
	return s.Uint64()&1 == 1
}

// ExpFloat64 returns an exponentially distributed float64 with rate 1
// (mean 1). Scale by 1/lambda for rate lambda.
func (s *Source) ExpFloat64() float64 {
	for {
		u := s.Float64()
		if u > 0 {
			return -math.Log(u)
		}
	}
}

// Perm returns a pseudo-random permutation of [0, n).
func (s *Source) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	s.Shuffle(len(p), func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}

// Shuffle pseudo-randomizes the order of n elements using swap.
func (s *Source) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		swap(i, j)
	}
}

// mul64 returns the 128-bit product of a and b as (hi, lo).
func mul64(a, b uint64) (hi, lo uint64) {
	const mask32 = 1<<32 - 1
	aLo, aHi := a&mask32, a>>32
	bLo, bHi := b&mask32, b>>32
	t := aLo * bLo
	lo = t & mask32
	c := t >> 32
	t = aHi*bLo + c
	tLo, tHi := t&mask32, t>>32
	t = aLo*bHi + tLo
	lo |= (t & mask32) << 32
	hi = aHi*bHi + tHi + t>>32
	return hi, lo
}

// Zipf draws integers in [0, n) with a Zipf(s) distribution: rank r has
// probability proportional to 1/(r+1)^s. It precomputes the CDF, so draws
// are O(log n).
type Zipf struct {
	src *Source
	cdf []float64
}

// NewZipf returns a Zipf sampler over [0, n) with exponent s >= 0.
// s == 0 degenerates to the uniform distribution. It panics if n <= 0.
func NewZipf(src *Source, n int, s float64) *Zipf {
	if n <= 0 {
		panic("rng: NewZipf called with n <= 0")
	}
	cdf := make([]float64, n)
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += 1 / math.Pow(float64(i+1), s)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return &Zipf{src: src, cdf: cdf}
}

// Draw returns the next Zipf-distributed rank in [0, n).
func (z *Zipf) Draw() int {
	u := z.src.Float64()
	lo, hi := 0, len(z.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
