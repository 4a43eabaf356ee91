// Package simrand provides seeded random distributions for workload
// generation. Every stream is explicitly seeded so experiments are
// reproducible, and independent components derive independent substreams
// with Fork so adding a consumer never perturbs the draws seen by another.
package simrand

import (
	"hash/fnv"
	"math"
	"math/rand" //det:allow the seeded wrapper every other package draws through
	"time"
)

// Source is a deterministic random stream.
type Source struct {
	rng  *rand.Rand
	seed int64
}

// New returns a stream seeded with seed.
func New(seed int64) *Source {
	return &Source{rng: rand.New(rand.NewSource(seed)), seed: seed}
}

// Reseed restarts the stream in place on seed: every later draw, and every
// Fork, is the one New(seed) would give, without a new generator's
// allocation.
func (s *Source) Reseed(seed int64) {
	s.rng.Seed(seed)
	s.seed = seed
}

// Seed returns the seed the stream was created (or last reseeded) with.
func (s *Source) Seed() int64 { return s.seed }

// Fork derives an independent substream identified by name. Forking is a
// pure function of (parent seed, name), so substreams are stable across runs
// regardless of draw order on the parent.
func (s *Source) Fork(name string) *Source {
	h := fnv.New64a()
	h.Write([]byte(name))
	return New(s.seed ^ int64(h.Sum64()))
}

// Float64 returns a uniform draw in [0,1).
func (s *Source) Float64() float64 { return s.rng.Float64() }

// Intn returns a uniform draw in [0,n).
func (s *Source) Intn(n int) int { return s.rng.Intn(n) }

// Exp returns an exponential draw with the given mean (the inter-arrival
// distribution of a Poisson process with rate 1/mean).
func (s *Source) Exp(mean float64) float64 {
	return s.rng.ExpFloat64() * mean
}

// ExpDuration returns an exponential duration with the given mean.
func (s *Source) ExpDuration(mean time.Duration) time.Duration {
	return time.Duration(s.Exp(float64(mean)))
}

// Normal returns a normal draw with the given mean and standard deviation.
func (s *Source) Normal(mean, stddev float64) float64 {
	return s.rng.NormFloat64()*stddev + mean
}

// TruncNormal returns a normal draw clamped to [lo,hi] by resampling (with a
// clamping fallback after 64 rejections, which only matters for extreme
// parameterizations).
func (s *Source) TruncNormal(mean, stddev, lo, hi float64) float64 {
	if lo > hi {
		panic("simrand: TruncNormal lo > hi")
	}
	for i := 0; i < 64; i++ {
		v := s.Normal(mean, stddev)
		if v >= lo && v <= hi {
			return v
		}
	}
	return math.Min(hi, math.Max(lo, mean))
}

// Perm returns a random permutation of [0,n).
func (s *Source) Perm(n int) []int { return s.rng.Perm(n) }
