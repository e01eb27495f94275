package estimate

// This file merges estimates of disjoint populations: each part estimates
// a disjoint slice of a stream, and the merged estimate must carry a
// combined error bound. Because the parts are sampled independently and
// their populations are disjoint, variances are additive for totals and
// combine with squared population weights for means — the algebra the
// paper applies across strata (Eqs. 6 and 9), lifted one level up. Each
// part carries its variance's degrees of freedom, and the merged ones are
// the Welch–Satterthwaite combination of the parts'.
//
// The serving tier does not merge estimates: its merger combines the
// shards' panes, one Combine over every cell. The one caller left is the
// benchmark's staged merge.

// FromBound reconstructs an Estimate from a (value, bound, confidence)
// triple, recovering the variance from the bound via the 68-95-99.7
// rule, with DF 0 (the normal limit). It inverts only a normal-limit
// bound: a part that carries its Variance and DF merges as it is.
func FromBound(value, bound float64, conf Confidence) Estimate {
	if conf == 0 {
		conf = Conf95
	}
	z := conf.Sigmas()
	return Estimate{
		Value:      value,
		Variance:   (bound / z) * (bound / z),
		Bound:      bound,
		Confidence: conf,
	}
}

// MergeSums combines per-shard SUM (or any additive total, e.g. a
// histogram bucket count) estimates over disjoint sub-populations: the
// merged value is the sum of the parts and, by independence of the
// shards' samplers, the merged variance is the sum of the variances.
// The confidence level of the first part is kept (parts are expected to
// share one level). Merging zero parts yields a zero estimate.
func MergeSums(parts []Estimate) Estimate {
	var value float64
	var w welch
	var conf Confidence
	for _, p := range parts {
		value += p.Value
		w.add(p.Variance, p.DF)
		if conf == 0 {
			conf = p.Confidence
		}
	}
	return finish(value, w, conf)
}

// MergeMeans combines per-shard MEAN estimates over disjoint
// sub-populations, weighting each part by its population size
// (the shard's observed item count):
//
//	MEAN  = Σ ωi·MEANi          ωi = Ci/ΣC
//	Var^  = Σ ω²i·Var^i
//
// — Eq. 8/9 applied with shards in place of strata. Parts with zero
// weight are skipped; if all weights are zero the merged estimate is
// zero with the first part's confidence.
func MergeMeans(parts []Estimate, counts []int64) Estimate {
	var total float64
	for i := range parts {
		if i < len(counts) && counts[i] > 0 {
			total += float64(counts[i])
		}
	}
	var conf Confidence
	for _, p := range parts {
		if conf == 0 {
			conf = p.Confidence
		}
	}
	if total == 0 {
		return finish(0, welch{}, conf)
	}
	var value float64
	var w welch
	for i, p := range parts {
		if i >= len(counts) || counts[i] <= 0 {
			continue
		}
		omega := float64(counts[i]) / total
		value += omega * p.Value
		w.add(omega*omega*p.Variance, p.DF)
	}
	return finish(value, w, conf)
}
