// Package stratify implements the pre-processing step the paper leaves
// as a pluggable assumption (§7.II): assigning strata to data items when
// the stream is NOT naturally stratified by source.
//
// StreamApprox assumes each sub-stream (stratum) is identified by the
// item's source and that items within a stratum are identically
// distributed. When sources are unknown or unreliable, the paper
// proposes stratifying "evolving streams" with bootstrap-based
// estimation or semi-supervised classification. This package provides
// two online stratifiers in that spirit:
//
//   - QuantileStratifier: value-quantile binning against a bootstrap
//     sample of the stream (the bootstrap proposal): items are assigned
//     to strata by which quantile band of the observed distribution
//     their value falls into. Bands are re-estimated per interval from a
//     reservoir, so the stratification tracks distribution drift.
//   - KMeansStratifier: online k-means in value space (the
//     semi-supervised proposal with zero labels): cluster centroids are
//     updated per item, and the stratum is the nearest centroid. Labeled
//     items (events that already carry a stratum) pin centroids, which
//     is the semi-supervised half.
//
// Both satisfy the Stratifier interface consumed by the public API's
// AutoStratify option.
package stratify

import (
	"fmt"
	"math"
	"sort"

	"streamapprox/internal/sampling"
	"streamapprox/internal/stream"
	"streamapprox/internal/xrand"
)

// Stratifier assigns a stratum to an event. Implementations are used in
// front of OASRS when the input stream has no reliable source labels.
type Stratifier interface {
	// Assign returns the stratum for the event. It may observe the
	// event's value to update internal state.
	Assign(e stream.Event) string
}

// QuantileStratifier bins events into k strata by value quantiles. The
// quantile edges are estimated from a reservoir sample ("bootstrap
// sample") and refreshed every refreshEvery observations, so the
// stratifier adapts to drifting distributions while staying O(1) per
// item between refreshes.
type QuantileStratifier struct {
	k            int
	refreshEvery int64

	reservoir *sampling.Reservoir
	edges     []float64
	seen      int64
	labels    []string
}

// NewQuantile returns a quantile stratifier with k strata, estimating
// edges from a reservoir of the given capacity and refreshing them every
// refreshEvery items. k is clamped to [2, 64].
func NewQuantile(k int, reservoirCap int, refreshEvery int64, rng *xrand.Rand) *QuantileStratifier {
	if k < 2 {
		k = 2
	}
	if k > 64 {
		k = 64
	}
	if reservoirCap < k*8 {
		reservoirCap = k * 8
	}
	if refreshEvery < 1 {
		refreshEvery = 1024
	}
	labels := make([]string, k)
	for i := range labels {
		labels[i] = fmt.Sprintf("q%02d", i)
	}
	return &QuantileStratifier{
		k:            k,
		refreshEvery: refreshEvery,
		reservoir:    sampling.NewReservoir(reservoirCap, rng),
		labels:       labels,
	}
}

// Edges returns the current quantile edges (nil before the first
// refresh).
func (q *QuantileStratifier) Edges() []float64 {
	out := make([]float64, len(q.edges))
	copy(out, q.edges)
	return out
}

// Assign implements Stratifier.
func (q *QuantileStratifier) Assign(e stream.Event) string {
	q.reservoir.Add(e.Value)
	q.seen++
	if q.edges == nil || q.seen%q.refreshEvery == 0 {
		q.refresh()
	}
	// Binary search for the band: edges[i-1] <= v < edges[i].
	v := e.Value
	lo, hi := 0, len(q.edges)
	for lo < hi {
		mid := (lo + hi) / 2
		if q.edges[mid] <= v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return q.labels[lo]
}

// refresh re-estimates the k-1 interior quantile edges from the
// bootstrap reservoir.
func (q *QuantileStratifier) refresh() {
	vals := q.reservoir.Values()
	if len(vals) < q.k {
		return
	}
	sort.Float64s(vals)
	edges := make([]float64, 0, q.k-1)
	for i := 1; i < q.k; i++ {
		idx := i * len(vals) / q.k
		if idx >= len(vals) {
			idx = len(vals) - 1
		}
		edge := vals[idx]
		// Keep only edges strictly inside the observed range and strictly
		// increasing: heavily repeated values collapse their bands rather
		// than splitting identical items across strata.
		if edge <= vals[0] || edge >= vals[len(vals)-1] {
			continue
		}
		if len(edges) == 0 || edge > edges[len(edges)-1] {
			edges = append(edges, edge)
		}
	}
	q.edges = edges
}

// KMeansStratifier clusters event values online into k strata. Each
// arriving item moves its nearest centroid toward the item's value with
// a per-cluster learning rate of 1/n (the standard online k-means
// update, equivalent to a running mean). Events that already carry a
// stratum label matching a cluster name pin that item to the labeled
// cluster — the semi-supervised mode of §7.
type KMeansStratifier struct {
	centroids []float64
	seeded    []bool
	counts    []int64
	labels    []string
	byLabel   map[string]int
	rng       *xrand.Rand
}

// NewKMeans returns an online k-means stratifier with k clusters.
// Unlabeled centroids are seeded from the first unassigned observations;
// labeled events seed (and pin) their named cluster directly.
func NewKMeans(k int, rng *xrand.Rand) *KMeansStratifier {
	if k < 2 {
		k = 2
	}
	if k > 64 {
		k = 64
	}
	labels := make([]string, k)
	byLabel := make(map[string]int, k)
	for i := range labels {
		labels[i] = fmt.Sprintf("c%02d", i)
		byLabel[labels[i]] = i
	}
	return &KMeansStratifier{
		centroids: make([]float64, k),
		seeded:    make([]bool, k),
		counts:    make([]int64, k),
		labels:    labels,
		byLabel:   byLabel,
		rng:       rng,
	}
}

// Centroids returns a copy of the seeded centroids, in cluster order.
func (m *KMeansStratifier) Centroids() []float64 {
	out := make([]float64, 0, len(m.centroids))
	for i, c := range m.centroids {
		if m.seeded[i] {
			out = append(out, c)
		}
	}
	return out
}

// Assign implements Stratifier.
func (m *KMeansStratifier) Assign(e stream.Event) string {
	// Semi-supervised: a pre-labeled event seeds and pins its cluster.
	if idx, ok := m.byLabel[e.Stratum]; ok {
		m.seed(idx, e.Value)
		m.update(idx, e.Value)
		return m.labels[idx]
	}
	// Warm-up: seed the first unseeded cluster.
	for idx := range m.centroids {
		if !m.seeded[idx] {
			m.seed(idx, e.Value)
			return m.labels[idx]
		}
	}
	idx := m.nearest(e.Value)
	m.update(idx, e.Value)
	return m.labels[idx]
}

func (m *KMeansStratifier) seed(idx int, v float64) {
	if m.seeded[idx] {
		return
	}
	// Spread exact duplicates slightly so clusters can separate.
	for i, c := range m.centroids {
		if m.seeded[i] && c == v {
			v += (math.Abs(v) + 1) * 1e-9 * (m.rng.Float64() - 0.5)
		}
	}
	m.centroids[idx] = v
	m.seeded[idx] = true
	m.counts[idx] = 1
}

func (m *KMeansStratifier) nearest(v float64) int {
	best, bestDist := 0, math.Inf(1)
	for i, c := range m.centroids {
		if !m.seeded[i] {
			continue
		}
		d := math.Abs(v - c)
		if d < bestDist {
			best, bestDist = i, d
		}
	}
	return best
}

func (m *KMeansStratifier) update(idx int, v float64) {
	m.counts[idx]++
	// Running-mean update with a floor on the learning rate so the
	// stratifier keeps adapting to drift instead of freezing.
	rate := 1 / float64(m.counts[idx])
	if rate < 1e-4 {
		rate = 1e-4
	}
	m.centroids[idx] += rate * (v - m.centroids[idx])
}
