package estimate

import (
	"math"
	"strings"
	"testing"

	"streamapprox/internal/sampling"
	"streamapprox/internal/stream"
	"streamapprox/internal/xrand"
)

func sampleFrom(items map[string][]float64, counts map[string]int64) *sampling.Sample {
	var s sampling.Sample
	for stratum, vals := range items {
		ci := counts[stratum]
		w := 1.0
		if ci > int64(len(vals)) && len(vals) > 0 {
			w = float64(ci) / float64(len(vals))
		}
		s.Strata = append(s.Strata, sampling.StratumSample{
			Stratum: stratum, Values: vals, Count: ci, Weight: w,
		})
	}
	return &s
}

func TestSumFullySampledIsExact(t *testing.T) {
	// When Yi = Ci the estimate is the exact sum with zero variance
	// (finite-population correction).
	s := sampleFrom(
		map[string][]float64{"a": {1, 2, 3}, "b": {10, 20}},
		map[string]int64{"a": 3, "b": 2},
	)
	got := Sum(s, Conf95)
	if got.Value != 36 {
		t.Errorf("Sum = %v, want 36", got.Value)
	}
	if got.Variance != 0 || got.Bound != 0 {
		t.Errorf("fully-sampled variance = %v, bound = %v, want 0", got.Variance, got.Bound)
	}
}

func TestSumWeighted(t *testing.T) {
	// 10 of 100 items sampled, each representing 10 originals.
	s := sampleFrom(
		map[string][]float64{"a": {1, 1, 1, 1, 1, 1, 1, 1, 1, 1}},
		map[string]int64{"a": 100},
	)
	got := Sum(s, Conf95)
	if got.Value != 100 {
		t.Errorf("Sum = %v, want 100", got.Value)
	}
	// Identical values => zero sample variance => zero bound.
	if got.Bound != 0 {
		t.Errorf("Bound = %v, want 0 for constant values", got.Bound)
	}
}

func TestSumVarianceEquation6(t *testing.T) {
	// Hand-computed: values {0, 2}, Ci=10, Yi=2.
	// mean=1, s² = ((0-1)²+(2-1)²)/(2-1) = 2.
	// Var = Ci(Ci-Yi)s²/Yi = 10*8*2/2 = 80, with Yi−1 = 1 degree of
	// freedom: the bound is √80 times the ν = 1 (Cauchy) quantile of the
	// ±2σ coverage, tan(π·erf(√2)/2) ≈ 13.97.
	s := sampleFrom(map[string][]float64{"a": {0, 2}}, map[string]int64{"a": 10})
	got := Sum(s, Conf95)
	if math.Abs(got.Variance-80) > 1e-9 || math.Abs(got.DF-1) > 1e-9 {
		t.Errorf("Variance = %v on %v df, want 80 on 1", got.Variance, got.DF)
	}
	if want := math.Tan(math.Pi*math.Erf(math.Sqrt2)/2) * math.Sqrt(80); math.Abs(got.Bound-want) > 1e-9*want {
		t.Errorf("Bound = %v, want tan(π·erf(√2)/2)·√80 = %v", got.Bound, want)
	}
}

// TestSumVarianceEquation6LargeN is the large-sample twin: with ten
// thousand values on ten thousand degrees of freedom the bound is the
// 68-95-99.7 rule's 2σ to within 0.02 %.
func TestSumVarianceEquation6LargeN(t *testing.T) {
	vals := make([]float64, 10000)
	for i := range vals {
		vals[i] = float64(i % 2 * 2) // half 0, half 2
	}
	s := sampleFrom(map[string][]float64{"a": vals}, map[string]int64{"a": 50000})
	got := Sum(s, Conf95)
	s2 := 10000.0 / 9999 // Σ(v−1)²/(Yi−1)
	if want := 50000 * 40000 * s2 / 10000; math.Abs(got.Variance-want) > 1e-9*want || math.Abs(got.DF-9999) > 1e-6 {
		t.Errorf("Variance = %v on %v df, want %v on 9999", got.Variance, got.DF, want)
	}
	if ratio := got.Bound / math.Sqrt(got.Variance); ratio < 2 || ratio > 2*1.0002 {
		t.Errorf("Bound/σ = %v, want 2 within 0.02 %%", ratio)
	}
}

func TestMeanEquation8And9(t *testing.T) {
	// Stratum a: Ci=10, values {0,2} -> mean 1, s²=2.
	// Stratum b: Ci=30, values {4,6} -> mean 5, s²=2.
	// MEAN = (10/40)*1 + (30/40)*5 = 0.25 + 3.75 = 4.
	// Var = (10/40)²*(2/2)*(8/10) + (30/40)²*(2/2)*(28/30)
	//     = 0.0625*0.8 + 0.5625*0.9333... = 0.05 + 0.525 = 0.575.
	s := sampleFrom(
		map[string][]float64{"a": {0, 2}, "b": {4, 6}},
		map[string]int64{"a": 10, "b": 30},
	)
	got := Mean(s, Conf95)
	if math.Abs(got.Value-4) > 1e-9 {
		t.Errorf("Mean = %v, want 4", got.Value)
	}
	if math.Abs(got.Variance-0.575) > 1e-9 {
		t.Errorf("Variance = %v, want 0.575", got.Variance)
	}
}

func TestMeanEmptySample(t *testing.T) {
	got := Mean(&sampling.Sample{}, Conf95)
	if got.Value != 0 || got.Bound != 0 {
		t.Errorf("empty sample mean = %+v", got)
	}
}

func TestCountIsExact(t *testing.T) {
	s := sampleFrom(map[string][]float64{"a": {1}}, map[string]int64{"a": 12345})
	got := Count(s, Conf95)
	if got.Value != 12345 || got.Bound != 0 {
		t.Errorf("Count = %+v", got)
	}
}

func TestLinearFuncMatchesSumForIdentity(t *testing.T) {
	s := sampleFrom(map[string][]float64{"a": {1, 3, 5, 7}}, map[string]int64{"a": 40})
	sum := Sum(s, Conf95)
	lin := LinearFunc(s, func(v float64) float64 { return v }, Conf95)
	if math.Abs(sum.Value-lin.Value) > 1e-9 || math.Abs(sum.Variance-lin.Variance) > 1e-9 {
		t.Errorf("LinearFunc(identity) = %+v, Sum = %+v", lin, sum)
	}
}

func TestLinearFuncTransform(t *testing.T) {
	// Query: count items with value > 2 (indicator function — a linear
	// query per the paper's histogram example).
	s := sampleFrom(map[string][]float64{"a": {1, 3, 5, 1}}, map[string]int64{"a": 8})
	got := LinearFunc(s, func(v float64) float64 {
		if v > 2 {
			return 1
		}
		return 0
	}, Conf95)
	// 2 of 4 sampled qualify, weight 2 => estimate 4.
	if got.Value != 4 {
		t.Errorf("indicator estimate = %v, want 4", got.Value)
	}
}

// TestConfidenceLevels: at n = 2 (one degree of freedom) each level's
// bound is √80 times the Cauchy quantile of its normal coverage,
// tan(π·erf(k/√2)/2) for ±kσ — 1.84, 13.97 and 235.8.
func TestConfidenceLevels(t *testing.T) {
	s := sampleFrom(map[string][]float64{"a": {0, 2}}, map[string]int64{"a": 10})
	b68 := Sum(s, Conf68).Bound
	b95 := Sum(s, Conf95).Bound
	b997 := Sum(s, Conf997).Bound
	if !(b68 < b95 && b95 < b997) {
		t.Errorf("bounds not ordered: %v %v %v", b68, b95, b997)
	}
	for k, got := range map[float64]float64{1: b68, 2: b95, 3: b997} {
		if want := math.Tan(math.Pi*math.Erf(k/math.Sqrt2)/2) * math.Sqrt(80); math.Abs(got-want) > 1e-9*want {
			t.Errorf("±%vσ bound at one degree of freedom = %v, want %v", k, got, want)
		}
	}
	if Conf68.String() != "68%" || Conf95.String() != "95%" || Conf997.String() != "99.7%" {
		t.Error("confidence String() wrong")
	}
	if Confidence(0).Sigmas() != 2 {
		t.Error("zero confidence should default to 2 sigmas")
	}
}

// TestConfidenceLevelsLargeN keeps the 68-95-99.7 rule's exact 1/2/3σ
// ratios: in the normal limit (DF 0, as for estimates merged from
// normal-limit bounds) exactly, and on a hundred thousand values to
// within 0.01 %.
func TestConfidenceLevelsLargeN(t *testing.T) {
	for _, parts := range [][]Estimate{
		{{Value: 1, Variance: 80}},
		{{Value: 1, Variance: 30}, {Value: 2, Variance: 50}},
	} {
		var bounds [3]float64
		for i, conf := range []Confidence{Conf68, Conf95, Conf997} {
			for j := range parts {
				parts[j].Confidence = conf
			}
			bounds[i] = MergeSums(parts).Bound
		}
		if bounds[0] != math.Sqrt(80) || bounds[1] != 2*math.Sqrt(80) || bounds[2] != 3*math.Sqrt(80) {
			t.Errorf("normal-limit bounds %v, want exactly 1, 2, 3 × √80", bounds)
		}
	}
	vals := make([]float64, 100000)
	for i := range vals {
		vals[i] = float64(i % 7)
	}
	s := sampleFrom(map[string][]float64{"a": vals}, map[string]int64{"a": 1000000})
	b68, b95, b997 := Sum(s, Conf68).Bound, Sum(s, Conf95).Bound, Sum(s, Conf997).Bound
	if math.Abs(b95/b68-2) > 2e-4 || math.Abs(b997/b68-3) > 3e-4 {
		t.Errorf("sigma multipliers at n = 1e5: %v %v %v", b68, b95, b997)
	}
}

func TestEstimateHelpers(t *testing.T) {
	e := Estimate{Value: 10, Bound: 2, Confidence: Conf95}
	lo, hi := e.Interval()
	if lo != 8 || hi != 12 {
		t.Errorf("Interval = [%v, %v]", lo, hi)
	}
	if !e.Contains(9) || e.Contains(13) {
		t.Error("Contains broken")
	}
	if !strings.Contains(e.String(), "±") || !strings.Contains(e.String(), "95%") {
		t.Errorf("String = %q", e.String())
	}
}

func TestAccuracyLoss(t *testing.T) {
	for _, tc := range []struct {
		approx, exact, want float64
	}{
		{100, 100, 0},
		{101, 100, 0.01},
		{99, 100, 0.01},
		{0, 0, 0},
		{-105, -100, 0.05},
	} {
		if got := AccuracyLoss(tc.approx, tc.exact); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("AccuracyLoss(%v, %v) = %v, want %v", tc.approx, tc.exact, got, tc.want)
		}
	}
	if !math.IsInf(AccuracyLoss(1, 0), 1) {
		t.Error("AccuracyLoss(1, 0) should be +Inf")
	}
}

// TestCoverage95 is the statistical soundness check of the whole §3.3
// machinery: across many independent OASRS runs, the 95% interval must
// contain the true sum roughly 95% of the time (within Monte-Carlo noise).
func TestCoverage95(t *testing.T) {
	rng := xrand.New(99)
	// Build a fixed population of 3 Gaussian strata.
	var population []stream.Event
	var trueSum float64
	for i := 0; i < 2000; i++ {
		for s, mu := range map[string]float64{"a": 10, "b": 1000, "c": 10000} {
			v := rng.Gaussian(mu, mu/10)
			population = append(population, stream.Event{Stratum: s, Value: v})
			trueSum += v
		}
	}
	const trials = 400
	covered := 0
	b := stream.BatchOf(population)
	defer b.Release()
	for trial := 0; trial < trials; trial++ {
		o := sampling.NewOASRS(600, nil, rng.Split())
		o.AddBatch(b, 0, b.Len())
		est := Sum(o.Finish(), Conf95)
		if est.Contains(trueSum) {
			covered++
		}
	}
	rate := float64(covered) / trials
	if rate < 0.90 || rate > 1.0 {
		t.Errorf("95%% interval coverage = %.3f over %d trials; error bounds are miscalibrated", rate, trials)
	}
}

func BenchmarkSum(b *testing.B) {
	rng := xrand.New(1)
	o := sampling.NewOASRS(3000, nil, rng)
	batch := stream.GetEventBatch()
	defer batch.Release()
	for i := 0; i < 100000; i++ {
		batch.AppendEvent(stream.Event{Stratum: string(rune('a' + i%3)), Value: rng.Gaussian(100, 10)})
	}
	o.AddBatch(batch, 0, batch.Len())
	s := o.Finish()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Sum(s, Conf95)
	}
}

// The estimators over Moments are the estimators: concatenating two
// intervals' moments is the window estimate, float for float the one the
// concatenated samples give.
func TestMomentsOfIntervalsMatchConcatenatedSamples(t *testing.T) {
	rng := xrand.New(5)
	var rows sampling.Sample
	var ms []Moments
	for interval := 0; interval < 3; interval++ {
		o := sampling.NewOASRS(60, nil, rng)
		b := stream.GetEventBatch()
		for i := 0; i < 900; i++ {
			b.AppendEvent(stream.Event{Stratum: string(rune('a' + i%3)), Value: rng.Gaussian(float64(100*(i%3+1)), 20)})
		}
		o.AddBatch(b, 0, b.Len())
		b.Release()
		s := o.Finish()
		rows.Strata = append(rows.Strata, s.Strata...)
		for i := range s.Strata {
			ms = append(ms, ValueMoments(&s.Strata[i]))
		}
	}
	pools := poolSample(ms, &rows)
	if got, want := SumOf(ms, pools, Conf95), Sum(&rows, Conf95); got != want {
		t.Errorf("SumOf = %+v, rows give %+v", got, want)
	}
	if got, want := MeanOf(ms, pools, Conf95), Mean(&rows, Conf95); got != want {
		t.Errorf("MeanOf = %+v, rows give %+v", got, want)
	}
	if got := CountOf(ms, Conf95); got.Value != 2700 || got.Bound != 0 {
		t.Errorf("CountOf = %+v", got)
	}
}

func TestMomentsOfByHand(t *testing.T) {
	s := sampleFrom(map[string][]float64{"a": {3, 1, 4, 1, 5, 9, 2, 6}}, map[string]int64{"a": 80})
	// Σv = 31, Σv² = 173, so Σ(v−mean)² = 173 − 31²/8 = 52.875 over Yi−1 = 7.
	got := ValueMoments(&s.Strata[0])
	if got.Count != 80 || got.N != 8 || got.Sum != 31 || got.Weight != 10 || math.Abs(got.S2-52.875/7) > 1e-12 {
		t.Errorf("ValueMoments = %+v", got)
	}
	if got := MomentsOf(5, 1, nil); got != (Moments{Count: 5, Weight: 1}) {
		t.Errorf("MomentsOf(no values) = %+v", got)
	}
}

func TestIndicatorMomentsClosedForm(t *testing.T) {
	for _, tc := range []struct{ n, hits int }{{0, 0}, {1, 0}, {1, 1}, {2, 1}, {7, 0}, {7, 7}, {1000, 137}} {
		vals := make([]float64, tc.n)
		for i := 0; i < tc.hits; i++ {
			vals[i] = 1
		}
		got, want := IndicatorMoments(5000, 2.5, int64(tc.n), int64(tc.hits)), MomentsOf(5000, 2.5, vals)
		if got.Count != want.Count || got.N != want.N || got.Sum != want.Sum || got.Weight != want.Weight ||
			math.Abs(got.S2-want.S2) > 1e-12*want.S2 {
			t.Errorf("n=%d hits=%d: closed form %+v, two-pass %+v", tc.n, tc.hits, got, want)
		}
	}
}
