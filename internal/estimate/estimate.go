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
//
// A window sums these terms over its (pane, stratum) cells, and a cell
// that sampled one item of several has no s² of its own: it borrows its
// stratum's variance pooled over the window (Pool). The bound multiplies
// √Var by the Student-t quantile at the variance's Welch–Satterthwaite
// degrees of freedom (student.go), which is 1, 2 or 3 in the large-sample
// limit of the 68-95-99.7 rule.
package estimate

import (
	"fmt"
	"math"
	"slices"

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
	Value    float64
	Variance float64
	// DF is the Welch–Satterthwaite degrees of freedom of Variance; 0
	// stands for the normal limit (no term estimated from a finite
	// sample), where Bound is Sigmas()·√Variance.
	DF         float64
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

// borrows reports whether the cell sampled one item of several: its own
// s² is undefined, and the window's pooled one stands in for it.
func (m *Moments) borrows() bool { return m.N == 1 && m.Count > 1 }

// Pool is one stratum's sampled values pooled over the cells of a window
// — their count, mean and squared deviations, combined from each cell's
// (N, Sum, S2) alone — and the Eq. 6 weight Σ Ci(Ci−1) of the cells that
// borrow its variance. Every borrowing cell shares the one pooled s², so
// together they are a single Welch–Satterthwaite term with ΣN−1 degrees of
// freedom.
type Pool struct {
	key         string // the stratum
	n, mean, ss float64
	borrowed    float64 // Σ Ci(Ci−1) over the borrowing cells
}

// add folds one cell into the pool (Chan et al.'s pairwise update).
func (p *Pool) add(m *Moments) {
	if m.N == 0 {
		return
	}
	n := float64(m.N)
	mean, ss := m.Sum/n, m.S2*(n-1)
	if p.n == 0 {
		p.n, p.mean, p.ss = n, mean, ss
	} else {
		total := p.n + n
		d := mean - p.mean
		p.mean += d * n / total
		p.ss += ss + d*d*p.n*n/total
		p.n = total
	}
	if m.borrows() {
		ci := float64(m.Count)
		p.borrowed += ci * (ci - 1)
	}
}

// term returns the borrowing cells' Eq. 6 variance and its degrees of
// freedom; zero while the pool holds fewer than two values.
func (p *Pool) term() (v, df float64) {
	if p.n < 2 || p.borrowed == 0 {
		return 0, 0
	}
	return p.borrowed * p.ss / (p.n - 1), p.n - 1
}

// PoolStrata pools a window's cells per stratum, keys[i] naming cell i's
// (nil: every cell is of one stratum): one Pool for each stratum with a
// borrowing cell, in order of first borrower, in pools' backing array
// while they fit, so a buffer on the caller's stack keeps them off the
// heap. A window pools a few strata: a cell finds its pool by a scan.
func PoolStrata(ms []Moments, keys []string, pools []Pool) []Pool {
	pools = pools[:0]
	first := slices.IndexFunc(ms, func(m Moments) bool { return m.borrows() })
	if first < 0 {
		return pools
	}
	for i := first; i < len(ms); i++ {
		if k := keyOf(keys, i); ms[i].borrows() && poolOf(pools, k) < 0 {
			pools = append(pools, Pool{key: k})
		}
	}
	for i := range ms {
		if p := poolOf(pools, keyOf(keys, i)); p >= 0 {
			pools[p].add(&ms[i])
		}
	}
	return pools
}

// keyOf is cell i's stratum: keys[i], or "" without keys.
func keyOf(keys []string, i int) string {
	if keys == nil {
		return ""
	}
	return keys[i]
}

// poolOf returns the index of key's pool, or -1.
func poolOf(pools []Pool, key string) int {
	for i := range pools {
		if pools[i].key == key {
			return i
		}
	}
	return -1
}

// poolSample is PoolStrata over a sample's moments, keyed by its entries'
// strata; the keys are lined up only when some entry borrows.
func poolSample(ms []Moments, s *sampling.Sample) []Pool {
	if !slices.ContainsFunc(ms, func(m Moments) bool { return m.borrows() }) {
		return nil
	}
	keys := make([]string, len(s.Strata))
	for i := range s.Strata {
		keys[i] = s.Strata[i].Stratum
	}
	return PoolStrata(ms, keys, nil)
}

// SumOf returns the approximate weighted sum of all items received from
// all sub-streams (Eqs. 2–3) with its error bound (Eq. 6). The entries
// may span several intervals; each is an independent stratum sample, and
// pools (PoolStrata over ms) give the variance of those that borrow.
func SumOf(ms []Moments, pools []Pool, conf Confidence) Estimate {
	var value float64
	var w welch
	for i := range ms {
		m := &ms[i]
		value += m.Sum * m.Weight // SUMi = (Σ Ii,j) · Wi      (Eq. 2)
		if m.N > 0 {
			ci, yi := float64(m.Count), float64(m.N)
			w.add(ci*(ci-yi)*m.S2/yi, yi-1) // (Eq. 6)
		}
	}
	for i := range pools {
		w.add(pools[i].term())
	}
	return finish(value, w, conf)
}

// MeanOf returns the approximate mean of all items (Eq. 4) with its
// error bound (Eq. 9); pools as for SumOf.
func MeanOf(ms []Moments, pools []Pool, conf Confidence) Estimate {
	total := float64(totalCount(ms))
	if total == 0 {
		return Estimate{Confidence: conf}
	}
	var value float64
	var w welch
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
			w.add(omega*omega*(m.S2/yi)*fpc, yi-1) // (Eq. 9)
		}
	}
	// A one-item cell's Eq. 9 term is its Eq. 6 term over (ΣC)².
	for i := range pools {
		v, df := pools[i].term()
		w.add(v/(total*total), df)
	}
	return finish(value, w, conf)
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

// Sum is SumOf over a sample's values, pooled per stratum.
func Sum(s *sampling.Sample, conf Confidence) Estimate {
	ms := sampleMoments(s, ValueMoments)
	return SumOf(ms, poolSample(ms, s), conf)
}

// Mean is MeanOf over a sample's values, pooled per stratum.
func Mean(s *sampling.Sample, conf Confidence) Estimate {
	ms := sampleMoments(s, ValueMoments)
	return MeanOf(ms, poolSample(ms, s), conf)
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
	return SumOf(ms, poolSample(ms, s), conf)
}

func finish(value float64, w welch, conf Confidence) Estimate {
	if w.variance < 0 {
		w.variance = 0
	}
	if conf == 0 {
		conf = Conf95
	}
	df := w.df()
	return Estimate{
		Value:      value,
		Variance:   w.variance,
		DF:         df,
		Bound:      conf.multiplier(df) * math.Sqrt(w.variance),
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
