// Package workload generates the input data streams of the paper's
// evaluation: synthetic Gaussian and Poisson sub-streams (§5.1), the skew
// mixes of §5.7, and synthetic stand-ins for the two case-study datasets
// — CAIDA-like NetFlow records (§6.2) and NYC-taxi-like trip records
// (§6.3). The stand-ins keep what the experiments measure: each
// sub-stream's arrival rate and value distribution.
package workload

import (
	"math"
	"time"

	"streamapprox/internal/stream"
	"streamapprox/internal/xrand"
)

// Epoch is the fixed start time of every generated stream; experiments
// are event-time driven, so any constant works and a constant keeps runs
// reproducible.
var Epoch = time.Date(2017, 12, 11, 0, 0, 0, 0, time.UTC)

// Distribution produces one sample value.
type Distribution interface {
	Sample(rng *xrand.Rand) float64
}

// Gaussian is a normal distribution N(Mu, Sigma²).
type Gaussian struct{ Mu, Sigma float64 }

// Sample implements Distribution.
func (g Gaussian) Sample(rng *xrand.Rand) float64 { return rng.Gaussian(g.Mu, g.Sigma) }

// Poisson is a Poisson distribution with mean Lambda.
type Poisson struct{ Lambda float64 }

// Sample implements Distribution.
func (p Poisson) Sample(rng *xrand.Rand) float64 { return float64(rng.Poisson(p.Lambda)) }

// Uniform is a uniform distribution over [Lo, Hi).
type Uniform struct{ Lo, Hi float64 }

// Sample implements Distribution.
func (u Uniform) Sample(rng *xrand.Rand) float64 {
	return u.Lo + (u.Hi-u.Lo)*rng.Float64()
}

// LogNormal is exp(N(Mu, Sigma²)) — the heavy-tailed distribution used
// for synthetic flow sizes.
type LogNormal struct{ Mu, Sigma float64 }

// Sample implements Distribution.
func (l LogNormal) Sample(rng *xrand.Rand) float64 {
	x := rng.Gaussian(l.Mu, l.Sigma)
	if x > 700 { // avoid overflow to +Inf
		x = 700
	}
	return math.Exp(x)
}

// Substream describes one sub-stream (stratum): its name, its value
// distribution, and its arrival rate in items per second.
type Substream struct {
	Name string
	Dist Distribution
	Rate int
}

// Generate produces `duration` worth of events for the given sub-streams,
// merged into a single stream ordered by event time — the view the stream
// aggregator presents to the engine (§2.1). Items within each sub-stream
// are evenly spaced over each second.
func Generate(rng *xrand.Rand, duration time.Duration, subs ...Substream) []stream.Event {
	perSub := make([][]stream.Event, len(subs))
	for i, sub := range subs {
		if sub.Rate <= 0 {
			continue
		}
		total := int(float64(sub.Rate) * duration.Seconds())
		events := make([]stream.Event, total)
		gap := time.Second / time.Duration(sub.Rate)
		for j := 0; j < total; j++ {
			events[j] = stream.Event{
				Stratum: sub.Name,
				Value:   sub.Dist.Sample(rng),
				Time:    Epoch.Add(time.Duration(j) * gap),
			}
		}
		perSub[i] = events
	}
	return stream.Interleave(perSub...)
}

// PaperGaussian returns the three Gaussian sub-streams of §5.1 —
// A(µ=10, σ=5), B(µ=1000, σ=50), C(µ=10000, σ=500) — with the given
// arrival rates (items/second).
func PaperGaussian(rateA, rateB, rateC int) []Substream {
	return []Substream{
		{Name: "A", Dist: Gaussian{Mu: 10, Sigma: 5}, Rate: rateA},
		{Name: "B", Dist: Gaussian{Mu: 1000, Sigma: 50}, Rate: rateB},
		{Name: "C", Dist: Gaussian{Mu: 10000, Sigma: 500}, Rate: rateC},
	}
}

// SkewGaussian returns the §5.7 Gaussian skew mix: sub-stream A(µ=100,
// σ=10) carries 80% of the items, B(µ=1000, σ=100) 19%, and C(µ=10000,
// σ=1000) 1%, at the given total rate (items/second).
func SkewGaussian(totalRate int) []Substream {
	return []Substream{
		{Name: "A", Dist: Gaussian{Mu: 100, Sigma: 10}, Rate: totalRate * 80 / 100},
		{Name: "B", Dist: Gaussian{Mu: 1000, Sigma: 100}, Rate: totalRate * 19 / 100},
		{Name: "C", Dist: Gaussian{Mu: 10000, Sigma: 1000}, Rate: totalRate / 100},
	}
}

// SkewPoisson returns the §5.7 Poisson skew mix: 80% / 19.99% / 0.01% of
// items with λ = 10 / 1000 / 1e8. The rare sub-stream C has enormous
// values, which is what separates stratified from simple random sampling
// in Fig. 6(c).
func SkewPoisson(totalRate int) []Substream {
	rateC := totalRate / 10000
	if rateC < 1 {
		rateC = 1
	}
	return []Substream{
		{Name: "A", Dist: Poisson{Lambda: 10}, Rate: totalRate * 80 / 100},
		{Name: "B", Dist: Poisson{Lambda: 1000}, Rate: totalRate * 1999 / 10000},
		{Name: "C", Dist: Poisson{Lambda: 1e8}, Rate: rateC},
	}
}
