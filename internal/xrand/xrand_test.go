package xrand

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same-seeded generators diverged at step %d", i)
		}
	}
}

func TestDifferentSeedsDiverge(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("differently-seeded generators collided %d/100 times", same)
	}
}

func TestFloat64Range(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		r := New(seed)
		for i := 0; i < 100; i++ {
			f := r.Float64()
			if f < 0 || f >= 1 {
				return false
			}
		}
		return true
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestIntnRange(t *testing.T) {
	r := New(7)
	for n := 1; n <= 64; n++ {
		for i := 0; i < 200; i++ {
			v := r.Intn(n)
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

func TestUint64nUniformity(t *testing.T) {
	r := New(99)
	const n, draws = 10, 100000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[r.Uint64n(n)]++
	}
	want := float64(draws) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Errorf("bucket %d: got %d, want ~%.0f", i, c, want)
		}
	}
}

func TestNormFloat64Moments(t *testing.T) {
	r := New(3)
	const n = 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Errorf("standard normal mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Errorf("standard normal variance = %v, want ~1", variance)
	}
}

func TestGaussianMoments(t *testing.T) {
	r := New(4)
	const n = 200000
	const mu, sigma = 1000.0, 50.0
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := r.Gaussian(mu, sigma)
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	sd := math.Sqrt(sumSq/n - mean*mean)
	if math.Abs(mean-mu) > 1 {
		t.Errorf("mean = %v, want ~%v", mean, mu)
	}
	if math.Abs(sd-sigma) > 1 {
		t.Errorf("stddev = %v, want ~%v", sd, sigma)
	}
}

func TestPoissonSmallLambda(t *testing.T) {
	r := New(5)
	const n = 200000
	const lambda = 10.0
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := float64(r.Poisson(lambda))
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean-lambda) > 0.1 {
		t.Errorf("Poisson(%v) mean = %v", lambda, mean)
	}
	if math.Abs(variance-lambda) > 0.3 {
		t.Errorf("Poisson(%v) variance = %v", lambda, variance)
	}
}

func TestPoissonLargeLambda(t *testing.T) {
	r := New(6)
	const n = 50000
	const lambda = 1e8
	var sum float64
	for i := 0; i < n; i++ {
		sum += float64(r.Poisson(lambda))
	}
	mean := sum / n
	// Relative error should be far below the sampling-noise scale.
	if math.Abs(mean-lambda)/lambda > 1e-4 {
		t.Errorf("Poisson(%v) mean = %v (relative error too large)", lambda, mean)
	}
}

func TestPoissonEdgeCases(t *testing.T) {
	r := New(8)
	if got := r.Poisson(0); got != 0 {
		t.Errorf("Poisson(0) = %d, want 0", got)
	}
	if got := r.Poisson(-5); got != 0 {
		t.Errorf("Poisson(-5) = %d, want 0", got)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(9)
	for _, n := range []int{0, 1, 2, 10, 100} {
		p := r.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) length %d", n, len(p))
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

func TestShufflePreservesElements(t *testing.T) {
	r := New(10)
	s := []int{1, 2, 3, 4, 5, 6, 7, 8}
	sum := 0
	r.Shuffle(len(s), func(i, j int) { s[i], s[j] = s[j], s[i] })
	for _, v := range s {
		sum += v
	}
	if sum != 36 {
		t.Errorf("shuffle lost elements: %v", s)
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(11)
	child := parent.Split()
	// The child stream must not be a shifted copy of the parent stream.
	a, b := New(11), child
	matches := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			matches++
		}
	}
	if matches > 0 {
		t.Errorf("split stream overlaps parent stream (%d matches)", matches)
	}
}

// A generator seeded with SplitSeed is the one Split hands over, and both
// advance the parent alike.
func TestSplitSeedIsSplit(t *testing.T) {
	a, b := New(13), New(13)
	for i := 0; i < 4; i++ {
		split, seeded := a.Split(), New(b.SplitSeed())
		if split.State() != seeded.State() || a.State() != b.State() {
			t.Fatalf("split %d: Split %+v, New(SplitSeed) %+v", i, split.State(), seeded.State())
		}
	}
}

func TestBoolProbability(t *testing.T) {
	r := New(12)
	const n = 100000
	hits := 0
	for i := 0; i < n; i++ {
		if r.Bool(0.3) {
			hits++
		}
	}
	got := float64(hits) / n
	if math.Abs(got-0.3) > 0.01 {
		t.Errorf("Bool(0.3) frequency = %v", got)
	}
}

// Uint64n must draw what the algorithm it replaced drew — the threshold
// computed up front on every call, the 128-bit product from 32-bit limbs —
// value for value and with the same generator consumption, so no seeded
// stream anywhere in the repository moves.
func TestUint64nMatchesEagerThreshold(t *testing.T) {
	eager := func(r *Rand, n uint64) uint64 {
		threshold := -n % n
		for {
			x := r.Uint64()
			const mask32 = 1<<32 - 1
			x0, x1 := x&mask32, x>>32
			n0, n1 := n&mask32, n>>32
			mid := x1*n0 + (x0*n0)>>32
			hi := x1*n1 + mid>>32 + (mid&mask32+x0*n1)>>32
			if lo := x * n; lo >= threshold {
				return hi
			}
		}
	}
	for _, n := range []uint64{3, 6, 1000, 16666, 1<<32 + 1, 1<<63 + 1} {
		got, want := New(n), New(n)
		for i := 0; i < 100000; i++ {
			if g, w := got.Uint64n(n), eager(want, n); g != w {
				t.Fatalf("n=%d draw %d: %d, want %d", n, i, g, w)
			}
		}
		if got.Uint64() != want.Uint64() {
			t.Errorf("n=%d: generators diverged after 100000 draws", n)
		}
	}
}

func BenchmarkUint64n(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Uint64n(16666)
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Uint64()
	}
}

func BenchmarkGaussian(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Gaussian(1000, 50)
	}
}
