package simrand

import (
	"math"
	"slices"
	"testing"
	"testing/quick"
	"time"
)

func TestDeterminismSameSeed(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same seed diverged")
		}
	}
}

func TestDifferentSeedsDiverge(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Float64() == b.Float64() {
			same++
		}
	}
	if same > 5 {
		t.Fatalf("seeds 1 and 2 produced %d/100 identical draws", same)
	}
}

func TestForkStableAcrossParentDraws(t *testing.T) {
	a := New(7)
	b := New(7)
	for i := 0; i < 10; i++ {
		a.Float64() // perturb parent a only
	}
	fa, fb := a.Fork("x"), b.Fork("x")
	for i := 0; i < 50; i++ {
		if fa.Float64() != fb.Float64() {
			t.Fatal("fork depends on parent draw position")
		}
	}
}

func TestForkIndependence(t *testing.T) {
	s := New(7)
	x, y := s.Fork("x"), s.Fork("y")
	same := 0
	for i := 0; i < 100; i++ {
		if x.Float64() == y.Float64() {
			same++
		}
	}
	if same > 5 {
		t.Fatalf("forks x and y matched on %d/100 draws", same)
	}
}

func TestExpMean(t *testing.T) {
	s := New(1)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += s.Exp(3.0)
	}
	mean := sum / n
	if math.Abs(mean-3.0) > 0.05 {
		t.Fatalf("Exp(3) sample mean %.3f", mean)
	}
}

func TestExpDuration(t *testing.T) {
	s := New(1)
	const n = 100000
	var sum time.Duration
	for i := 0; i < n; i++ {
		d := s.ExpDuration(time.Second)
		if d < 0 {
			t.Fatal("negative duration")
		}
		sum += d
	}
	mean := sum / n
	if mean < 950*time.Millisecond || mean > 1050*time.Millisecond {
		t.Fatalf("mean %v", mean)
	}
}

func TestNormalMoments(t *testing.T) {
	s := New(2)
	const n = 200000
	sum, sumsq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := s.Normal(10, 2)
		sum += v
		sumsq += v * v
	}
	mean := sum / n
	variance := sumsq/n - mean*mean
	if math.Abs(mean-10) > 0.05 || math.Abs(variance-4) > 0.15 {
		t.Fatalf("mean=%.3f var=%.3f", mean, variance)
	}
}

func TestTruncNormalBounds(t *testing.T) {
	f := func(seed int64) bool {
		s := New(seed)
		for i := 0; i < 100; i++ {
			v := s.TruncNormal(0.3, 2.0, 0.05, 1.0)
			if v < 0.05 || v > 1.0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestTruncNormalDegenerate(t *testing.T) {
	s := New(3)
	// Interval far from the mean: resampling gives up and clamps.
	v := s.TruncNormal(0, 0.001, 5, 6)
	if v < 5 || v > 6 {
		t.Fatalf("v = %f outside [5,6]", v)
	}
}

func TestPermIsPermutation(t *testing.T) {
	s := New(9)
	p := s.Perm(10)
	seen := map[int]bool{}
	for _, v := range p {
		if v < 0 || v >= 10 || seen[v] {
			t.Fatalf("invalid permutation %v", p)
		}
		seen[v] = true
	}
}

// draws takes one draw of every distribution, in turn, rounds times over,
// plus the first draw of a fork.
func draws(s *Source, rounds int) []float64 {
	var out []float64
	for range rounds {
		out = append(out, s.Float64(), float64(s.Intn(1000)), s.Exp(2),
			float64(s.ExpDuration(time.Second)), s.Normal(10, 2),
			s.TruncNormal(0.3, 2, 0.05, 1))
		for _, v := range s.Perm(8) {
			out = append(out, float64(v))
		}
	}
	return append(out, s.Fork("x").Float64())
}

// TestReseedIsNew pins what a recycled source relies on: after any number of
// earlier draws on any seed, Reseed(seed) continues exactly as New(seed)
// starts, for every distribution and for Fork.
func TestReseedIsNew(t *testing.T) {
	f := func(first, seed int64, earlier uint8) bool {
		s := New(first)
		draws(s, int(earlier%16))
		s.Reseed(seed)
		if s.Seed() != seed {
			return false
		}
		return slices.Equal(draws(s, 8), draws(New(seed), 8))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
