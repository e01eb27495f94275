// Package estimate implements StreamApprox's error-estimation mechanism
// (paper §3.3): rigorous variance estimates for the approximate SUM and
// MEAN of a stratified sample, converted into error bounds via the
// 68-95-99.7 rule.
//
// Given X sub-streams where stratum i contributed Ci items of which Yi
// were sampled (values Ii,1..Ii,Yi):
//
//	Var^(SUM)  = Σ_i Ci·(Ci−Yi)·s²i/Yi                       (Eq. 6)
//	Var^(MEAN) = Σ_i ω²i·(s²i/Yi)·(Ci−Yi)/Ci, ωi = Ci/ΣC     (Eq. 9)
//
// with s²i the sample variance of stratum i's sampled items (Eq. 7).
// The (Ci−Yi)/Ci term is the finite-population correction: strata sampled
// exhaustively (Yi = Ci) contribute zero variance.
package estimate

import (
	"fmt"
	"math"

	"streamapprox/internal/sampling"
)

// Confidence selects the error-bound multiplier per the 68-95-99.7 rule.
type Confidence int

// Supported confidence levels.
const (
	Conf68  Confidence = iota + 1 // ±1σ
	Conf95                        // ±2σ
	Conf997                       // ±3σ
)

// Sigmas returns the standard-deviation multiplier for the level.
func (c Confidence) Sigmas() float64 {
	switch c {
	case Conf68:
		return 1
	case Conf997:
		return 3
	default:
		return 2
	}
}

// String returns the human-readable confidence level.
func (c Confidence) String() string {
	switch c {
	case Conf68:
		return "68%"
	case Conf997:
		return "99.7%"
	default:
		return "95%"
	}
}

// Estimate is an approximate query result with its error bound:
// the true value lies in [Value−Bound, Value+Bound] with probability
// Confidence (under the CLT assumptions of §7).
type Estimate struct {
	Value      float64
	Variance   float64
	Bound      float64
	Confidence Confidence
}

// String renders "value ± bound (conf)".
func (e Estimate) String() string {
	return fmt.Sprintf("%.4f ± %.4f (%s)", e.Value, e.Bound, e.Confidence)
}

// Interval returns the estimate's confidence interval [lo, hi].
func (e Estimate) Interval() (lo, hi float64) {
	return e.Value - e.Bound, e.Value + e.Bound
}

// Contains reports whether v falls inside the confidence interval.
func (e Estimate) Contains(v float64) bool {
	lo, hi := e.Interval()
	return v >= lo && v <= hi
}

// Moments holds one stratum's sufficient statistics for one sampling
// interval: everything Eqs. 2–9 read from the stratum's sampled items.
// Because Eq. 6 and Eq. 9 are sums of independent per-stratum terms, a
// window spanning several intervals is estimated from the intervals'
// Moments alone — no sampled row is needed once they are taken.
type Moments struct {
	Count  int64   `json:"c"`   // Ci: items observed
	N      int64   `json:"n"`   // Yi: items sampled
	Sum    float64 `json:"sum"` // Σ sampled values
	S2     float64 `json:"s2"`  // sample variance of the sampled values (Eq. 7)
	Weight float64 `json:"w"`   // Wi (Eq. 1)
}

// MomentsOf reduces a stratum's sampled values to Moments; count is Ci
// and weight Wi. The variance is the two-pass Σ(v−mean)²/(Yi−1).
func MomentsOf(count int64, weight float64, values []float64) Moments {
	var sum float64
	for _, v := range values {
		sum += v
	}
	var s2 float64
	if yi := float64(len(values)); yi > 1 {
		mean := sum / yi
		for _, v := range values {
			d := v - mean
			s2 += d * d
		}
		s2 /= yi - 1
	}
	return Moments{Count: count, N: int64(len(values)), Sum: sum, S2: s2, Weight: weight}
}

// IndicatorMoments is MomentsOf for an indicator query in closed form:
// of n sampled items, hits have value 1 and the rest 0, so with p =
// hits/n the squared deviations sum to hits·(1−p)² + (n−hits)·p².
func IndicatorMoments(count int64, weight float64, n, hits int64) Moments {
	m := Moments{Count: count, N: n, Sum: float64(hits), Weight: weight}
	if n > 1 {
		p := float64(hits) / float64(n)
		m.S2 = (float64(hits)*(1-p)*(1-p) + float64(n-hits)*p*p) / float64(n-1)
	}
	return m
}

// ValueMoments is MomentsOf over a stratum entry's value column.
func ValueMoments(st *sampling.StratumSample) Moments {
	return MomentsOf(st.Count, st.Weight, st.Values)
}

// CountMoments is ValueMoments without the passes over the values: the
// counts and the weight, all a COUNT or an indicator query reads.
func CountMoments(st *sampling.StratumSample) Moments {
	return Moments{Count: st.Count, N: int64(len(st.Values)), Weight: st.Weight}
}

// sampleMoments applies of to every stratum of the sample.
func sampleMoments(s *sampling.Sample, of func(*sampling.StratumSample) Moments) []Moments {
	ms := make([]Moments, len(s.Strata))
	for i := range s.Strata {
		ms[i] = of(&s.Strata[i])
	}
	return ms
}

// SumOf returns the approximate weighted sum of all items received from
// all sub-streams (Eqs. 2–3) with its error bound (Eq. 6). The entries
// may span several intervals; each is an independent stratum sample.
func SumOf(ms []Moments, conf Confidence) Estimate {
	var value, variance float64
	for i := range ms {
		m := &ms[i]
		value += m.Sum * m.Weight // SUMi = (Σ Ii,j) · Wi      (Eq. 2)
		if m.N > 0 {
			ci, yi := float64(m.Count), float64(m.N)
			variance += ci * (ci - yi) * m.S2 / yi // (Eq. 6)
		}
	}
	return finish(value, variance, conf)
}

// MeanOf returns the approximate mean of all items (Eq. 4) with its
// error bound (Eq. 9).
func MeanOf(ms []Moments, conf Confidence) Estimate {
	total := float64(totalCount(ms))
	if total == 0 {
		return Estimate{Confidence: conf}
	}
	var value, variance float64
	for i := range ms {
		m := &ms[i]
		if m.Count == 0 {
			continue
		}
		ci, yi := float64(m.Count), float64(m.N)
		omega := ci / total
		if m.N > 0 {
			value += omega * (m.Sum / yi) // MEAN = Σ ωi·MEANi          (Eq. 8)
			fpc := (ci - yi) / ci
			variance += omega * omega * (m.S2 / yi) * fpc // (Eq. 9)
		}
	}
	return finish(value, variance, conf)
}

// CountOf returns the estimated total number of items (exact for OASRS
// and STS since counters track arrivals; the bound is therefore zero).
func CountOf(ms []Moments, conf Confidence) Estimate {
	return Estimate{Value: float64(totalCount(ms)), Confidence: conf}
}

func totalCount(ms []Moments) int64 {
	var total int64
	for i := range ms {
		total += ms[i].Count
	}
	return total
}

// Sum is SumOf over a sample's values.
func Sum(s *sampling.Sample, conf Confidence) Estimate {
	return SumOf(sampleMoments(s, ValueMoments), conf)
}

// Mean is MeanOf over a sample's values.
func Mean(s *sampling.Sample, conf Confidence) Estimate {
	return MeanOf(sampleMoments(s, ValueMoments), conf)
}

// Count is CountOf over a sample's counters.
func Count(s *sampling.Sample, conf Confidence) Estimate {
	return CountOf(sampleMoments(s, CountMoments), conf)
}

// LinearFunc estimates Σ f(item) over the original stream: a generic
// linear query (§3.2 "OASRS supports any types of approximate linear
// queries") — SumOf applied to the transformed values.
func LinearFunc(s *sampling.Sample, f func(v float64) float64, conf Confidence) Estimate {
	ms := make([]Moments, len(s.Strata))
	var vals []float64 // one buffer for every stratum
	for i := range s.Strata {
		st := &s.Strata[i]
		vals = vals[:0]
		for _, v := range st.Values {
			vals = append(vals, f(v))
		}
		ms[i] = MomentsOf(st.Count, st.Weight, vals)
	}
	return SumOf(ms, conf)
}

func finish(value, variance float64, conf Confidence) Estimate {
	if variance < 0 {
		variance = 0
	}
	if conf == 0 {
		conf = Conf95
	}
	return Estimate{
		Value:      value,
		Variance:   variance,
		Bound:      conf.Sigmas() * math.Sqrt(variance),
		Confidence: conf,
	}
}

// AccuracyLoss computes the paper's accuracy-loss metric (§6.1):
// |approx − exact| / |exact|. It returns 0 when exact is 0 and approx is
// 0, and +Inf when exact is 0 but approx is not.
func AccuracyLoss(approx, exact float64) float64 {
	if exact == 0 {
		if approx == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return math.Abs(approx-exact) / math.Abs(exact)
}
