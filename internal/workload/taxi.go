package workload

import (
	"time"

	"streamapprox/internal/stream"
	"streamapprox/internal/xrand"
)

// Taxi synthesizes the NYC taxi case-study dataset (§6.3). The paper used
// the DEBS 2015 Grand Challenge dataset (all rides of 10,000 NYC taxis in
// 2013) with each trip's start coordinate mapped to one of the six
// boroughs, and the query "average trip distance per start borough per
// sliding window". The synthetic generator reproduces:
//
//   - strong borough popularity skew (Manhattan dominates NYC yellow-cab
//     pickups; EWR and Staten Island are vanishingly rare strata);
//   - per-borough trip-distance distributions (short intra-Manhattan
//     hops vs long airport runs from EWR).
//
// Stratum = start borough, Value = trip distance in miles.

// borough describes one pickup stratum.
type borough struct {
	name  string
	share float64
	dist  Distribution
}

// boroughs is ordered by descending popularity; shares sum to 1.
func boroughs() []borough {
	return []borough{
		{name: "manhattan", share: 0.8780, dist: LogNormal{Mu: 0.75, Sigma: 0.55}},    // median ≈2.1 mi
		{name: "brooklyn", share: 0.0640, dist: LogNormal{Mu: 1.10, Sigma: 0.60}},     // median ≈3.0 mi
		{name: "queens", share: 0.0500, dist: LogNormal{Mu: 2.20, Sigma: 0.45}},       // airport trips, ≈9 mi
		{name: "bronx", share: 0.0050, dist: LogNormal{Mu: 1.30, Sigma: 0.55}},        // ≈3.7 mi
		{name: "staten-island", share: 0.0020, dist: LogNormal{Mu: 1.80, Sigma: 0.5}}, // ≈6 mi
		{name: "ewr", share: 0.0010, dist: Gaussian{Mu: 17, Sigma: 3}},                // Newark runs
	}
}

// TaxiEvents generates n synthetic trip records spread uniformly over
// duration with the borough mix above.
func TaxiEvents(rng *xrand.Rand, n int, duration time.Duration) []stream.Event {
	if n <= 0 {
		return nil
	}
	gap := duration / time.Duration(n)
	if gap <= 0 {
		gap = time.Nanosecond
	}
	bs := boroughs()
	// Precompute the CDF once.
	cdf := make([]float64, len(bs))
	acc := 0.0
	for i, b := range bs {
		acc += b.share
		cdf[i] = acc
	}
	out := make([]stream.Event, n)
	for i := range out {
		u := rng.Float64()
		k := 0
		for k < len(cdf)-1 && u >= cdf[k] {
			k++
		}
		v := bs[k].dist.Sample(rng)
		if v < 0.1 {
			v = 0.1 // no negative or zero-length trips
		}
		out[i] = stream.Event{
			Stratum: bs[k].name,
			Value:   v,
			Time:    Epoch.Add(time.Duration(i) * gap),
		}
	}
	return out
}
