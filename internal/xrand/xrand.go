// Package xrand provides a small, deterministic, allocation-free random
// number generator plus the distribution samplers the StreamApprox
// workloads need (uniform, Gaussian, Poisson).
//
// The generator is splitmix64: a 64-bit state advanced by a Weyl constant
// and finalized with two xor-shift-multiply rounds. It is fast, passes
// BigCrush, and — unlike math/rand's global source — is explicitly seeded
// so every experiment in this repository is reproducible bit-for-bit.
//
// Rand is NOT safe for concurrent use; each worker goroutine owns its own
// instance (see Split).
package xrand

import (
	"math"
	"math/bits"
)

// Rand is a deterministic pseudo-random number generator.
type Rand struct {
	state uint64

	// Cached second value from the Box-Muller transform.
	hasGauss bool
	gauss    float64
}

// New returns a generator seeded with seed. Two generators constructed with
// the same seed produce identical sequences.
func New(seed uint64) *Rand {
	return &Rand{state: seed}
}

// Split derives a new independent generator from r: New(r.SplitSeed()).
// Handing one to each of w workers gives each its own stream.
func (r *Rand) Split() *Rand {
	return New(r.SplitSeed())
}

// SplitSeed draws the seed Split derives a generator from: r's next value
// through an extra finalization round, which decorrelates the derived
// stream from r's. A consumer that seeds its own generator takes it where
// a Split generator would be handed over.
func (r *Rand) SplitSeed() uint64 {
	return mix(r.Uint64())
}

// Seed resets the generator state.
func (r *Rand) Seed(seed uint64) {
	r.state = seed
	r.hasGauss = false
}

// State captures the generator's full state for checkpointing.
type State struct {
	Seed     uint64  `json:"seed"`
	HasGauss bool    `json:"hasGauss"`
	Gauss    float64 `json:"gauss"`
}

// State returns the generator's current state.
func (r *Rand) State() State {
	return State{Seed: r.state, HasGauss: r.hasGauss, Gauss: r.gauss}
}

// SetState restores a previously captured state; the generator then
// produces exactly the sequence it would have produced.
func (r *Rand) SetState(s State) {
	r.state = s.Seed
	r.hasGauss = s.HasGauss
	r.gauss = s.Gauss
}

func mix(z uint64) uint64 {
	z ^= z >> 33
	z *= 0xff51afd7ed558ccd
	z ^= z >> 33
	z *= 0xc4ceb9fe1a85ec53
	z ^= z >> 33
	return z
}

// Uint64 returns the next 64 uniformly distributed bits.
func (r *Rand) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniform float64 in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform int in [0, n). It panics if n <= 0, mirroring
// math/rand, because a non-positive bound is a programming error.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn called with non-positive n")
	}
	return int(r.Uint64n(uint64(n)))
}

// Int63 returns a uniform non-negative int64.
func (r *Rand) Int63() int64 {
	return int64(r.Uint64() >> 1)
}

// Uint64n returns a uniform uint64 in [0, n) using Lemire's multiply-shift
// rejection method (unbiased). The rejection threshold -n mod n is below
// n, so a draw whose low product word is at least n is accepted without
// the 64-bit division that computing the threshold costs.
func (r *Rand) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("xrand: Uint64n called with zero n")
	}
	// Fast path for powers of two.
	if n&(n-1) == 0 {
		return r.Uint64() & (n - 1)
	}
	hi, lo := bits.Mul64(r.Uint64(), n)
	if lo < n {
		for threshold := -n % n; lo < threshold; {
			hi, lo = bits.Mul64(r.Uint64(), n)
		}
	}
	return hi
}

// Perm returns a random permutation of [0, n) (Fisher-Yates).
func (r *Rand) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		j := r.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}

// Shuffle pseudo-randomizes the order of n elements using swap.
func (r *Rand) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// Bool returns true with probability p.
func (r *Rand) Bool(p float64) bool {
	return r.Float64() < p
}

// NormFloat64 returns a standard normal variate (mean 0, stddev 1) using
// the Box-Muller transform with second-value caching.
func (r *Rand) NormFloat64() float64 {
	if r.hasGauss {
		r.hasGauss = false
		return r.gauss
	}
	var u, v, s float64
	for {
		u = 2*r.Float64() - 1
		v = 2*r.Float64() - 1
		s = u*u + v*v
		if s > 0 && s < 1 {
			break
		}
	}
	f := math.Sqrt(-2 * math.Log(s) / s)
	r.gauss = v * f
	r.hasGauss = true
	return u * f
}

// Gaussian returns a normal variate with the given mean and stddev.
func (r *Rand) Gaussian(mean, stddev float64) float64 {
	return mean + stddev*r.NormFloat64()
}

// Poisson returns a Poisson variate with mean lambda.
//
// Three regimes:
//   - lambda <= 0: returns 0 (degenerate).
//   - lambda < 30: Knuth's product-of-uniforms method (exact).
//   - otherwise: normal approximation N(lambda, lambda), rounded and
//     clamped at zero. For the workloads in this repository lambda is
//     either small (10, 1000 uses the exact/approx boundary comfortably)
//     or enormous (1e8, where the relative error of the approximation is
//     ~1e-4 and irrelevant to sampling-accuracy experiments).
func (r *Rand) Poisson(lambda float64) int64 {
	switch {
	case lambda <= 0:
		return 0
	case lambda < 30:
		l := math.Exp(-lambda)
		var k int64
		p := 1.0
		for {
			p *= r.Float64()
			if p <= l {
				return k
			}
			k++
		}
	default:
		v := math.Round(lambda + math.Sqrt(lambda)*r.NormFloat64())
		if v < 0 {
			return 0
		}
		return int64(v)
	}
}
