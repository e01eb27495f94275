// Package sampling implements the sampling algorithms evaluated in the
// StreamApprox paper:
//
//   - Reservoir: reservoir sampling (paper Algorithm 1, Algorithm R), each
//     item's slot drawn from a stream keyed per reservoir at the item's
//     position, so a sample does not depend on how its values were
//     batched, nor on what other reservoirs were offered.
//   - OASRS: Online Adaptive Stratified Reservoir Sampling (paper
//     Algorithm 3, §3.2) — the paper's primary contribution.
//   - DistributedOASRS: the synchronization-free parallel extension of
//     OASRS (§3.2, "Distributed execution").
//   - RandomSortSRS: Spark's simple random sampling via random sort with
//     the two-threshold (p, q) optimization (§4.1.1 / Meng's ScaSRS).
//   - StratifiedSTS: Spark's stratified sampling — groupBy(strata)
//     followed by per-stratum random-sort sampling, including the shuffle
//     and cross-worker barrier that make it expensive (§4.1.1).
//
// All samplers are deterministic given their seeds: OASRS and Reservoir
// draw from streams keyed by a seed (xrand.At), the Spark samplers from
// an injected *xrand.Rand.
package sampling

import "sort"

// StratumSample is the per-stratum portion of a sample: the selected
// items' values as one column, the total number of items observed in the
// stratum during the interval (Ci), and the weight Wi each selected item
// carries (Equation 1):
//
//	Wi = Ci/Ni  if Ci > Ni   (each selected item represents Ci/Ni originals)
//	Wi = 1      if Ci <= Ni  (every item was kept)
//
// Every query is a linear query over sampled values, so a value is all a
// sampled item keeps. Keys is nil for stratified samplers — every value
// belongs to Stratum. A stratum-blind sampler (RandomSortSRS) reports one
// pseudo-stratum and sets Keys[i] to the stratum Values[i] came from.
type StratumSample struct {
	Stratum string    `json:"stratum"`
	Values  []float64 `json:"values"`
	Keys    []string  `json:"keys,omitempty"`
	Count   int64     `json:"count"`
	Weight  float64   `json:"weight"`
}

// SampledCount returns Yi, the number of items actually selected.
func (s *StratumSample) SampledCount() int { return len(s.Values) }

// Sample is the output of one sampling interval: one StratumSample per
// sub-stream, ordered by stratum key for determinism.
type Sample struct {
	Strata []StratumSample
}

// TotalCount returns ΣCi, the total number of items observed across all
// strata during the interval.
func (s *Sample) TotalCount() int64 {
	var total int64
	for i := range s.Strata {
		total += s.Strata[i].Count
	}
	return total
}

// SampledCount returns ΣYi, the total number of items selected.
func (s *Sample) SampledCount() int {
	total := 0
	for i := range s.Strata {
		total += len(s.Strata[i].Values)
	}
	return total
}

// Stratum returns the StratumSample for the given key, or nil.
func (s *Sample) Stratum(key string) *StratumSample {
	for i := range s.Strata {
		if s.Strata[i].Stratum == key {
			return &s.Strata[i]
		}
	}
	return nil
}

// sortStrata orders strata by key so output is deterministic.
func sortStrata(strata []StratumSample) {
	sort.Slice(strata, func(i, j int) bool {
		return strata[i].Stratum < strata[j].Stratum
	})
}

// weightFor computes Equation 1.
func weightFor(count int64, sampled int) float64 {
	if sampled > 0 && count > int64(sampled) {
		return float64(count) / float64(sampled)
	}
	return 1
}
