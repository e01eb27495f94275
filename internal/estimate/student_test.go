package estimate

import (
	"fmt"
	"math"
	"testing"

	"streamapprox/internal/xrand"
)

// TestMultiplierClosedForms pins the Student-t multipliers to the closed
// forms at one and two degrees of freedom, to 1, 2 and 3 in the normal
// limit, and to the exact integer-ν coverage beyond the table.
func TestMultiplierClosedForms(t *testing.T) {
	for _, conf := range []Confidence{Conf68, Conf95, Conf997} {
		z := conf.Sigmas()
		cover := math.Erf(z / math.Sqrt2)
		p := (1 + cover) / 2
		// ν = 1 is Cauchy: the quantile of one-sided level p is tan(π(p−½)).
		if got, want := conf.multiplier(1), math.Tan(math.Pi*(p-0.5)); math.Abs(got-want) > 1e-9*want {
			t.Errorf("%v at ν = 1: %v, want %v", conf, got, want)
		}
		// ν = 2: P(|T| ≤ q) = q/√(2+q²), so q = c·√(2/(1−c²)).
		if got, want := conf.multiplier(2), cover*math.Sqrt(2/(1-cover*cover)); math.Abs(got-want) > 1e-9*want {
			t.Errorf("%v at ν = 2: %v, want %v", conf, got, want)
		}
		for _, df := range []float64{0, -1, math.Inf(1), math.NaN()} {
			if got := conf.multiplier(df); got != z {
				t.Errorf("%v at ν = %v: %v, want exactly %v", conf, df, got, z)
			}
		}
		// Beyond the table the expansion keeps the coverage to 1e-5, and
		// the multiplier falls toward z.
		prev := conf.multiplier(exactDF)
		for _, nu := range []int{31, 40, 60, 100, 1000, 100000} {
			got := conf.multiplier(float64(nu))
			if c := tCover(got, nu); math.Abs(c-cover) > 1e-5 {
				t.Errorf("%v at ν = %d: multiplier %v covers %v, want %v", conf, nu, got, c, cover)
			}
			if !(got < prev && got > z) {
				t.Errorf("%v at ν = %d: multiplier %v not between z = %v and %v", conf, nu, got, z, prev)
			}
			prev = got
		}
	}
	if got := Conf95.multiplier(2); math.Abs(got-4.527) > 1e-3 {
		t.Errorf("±2σ at ν = 2: %v, want 4.527", got)
	}
	if got := Conf95.multiplier(1); math.Abs(got-13.97) > 1e-2 {
		t.Errorf("±2σ at ν = 1: %v, want 13.97", got)
	}
}

// TestMultiplierTable: every tabulated quantile has its level's coverage,
// and between integers the multiplier moves monotonically, never below the
// quantile at the next integer.
func TestMultiplierTable(t *testing.T) {
	for _, conf := range []Confidence{Conf68, Conf95, Conf997} {
		cover := math.Erf(conf.Sigmas() / math.Sqrt2)
		for nu := 1; nu <= exactDF; nu++ {
			if c := tCover(conf.multiplier(float64(nu)), nu); math.Abs(c-cover) > 1e-12 {
				t.Errorf("%v at ν = %d covers %v, want %v", conf, nu, c, cover)
			}
		}
		prev := conf.multiplier(1)
		for df := 1.25; df <= exactDF+5; df += 0.25 {
			got := conf.multiplier(df)
			if got > prev || got < conf.multiplier(math.Ceil(df)) {
				t.Errorf("%v at ν = %v: %v (previous %v, next integer %v)", conf, df, got, prev, conf.multiplier(math.Ceil(df)))
			}
			prev = got
		}
	}
}

// TestWelchSatterthwaite: the merged degrees of freedom of independent
// variance terms, with normal-limit terms adding variance only.
func TestWelchSatterthwaite(t *testing.T) {
	for _, tc := range []struct {
		parts []Estimate
		want  float64
	}{
		{[]Estimate{{Variance: 1, DF: 4}, {Variance: 1, DF: 4}}, 8},
		{[]Estimate{{Variance: 4, DF: 3}, {Variance: 1, DF: 10}}, 25 / (16.0/3 + 0.1)},
		{[]Estimate{{Variance: 4, DF: 3}, {Variance: 0, DF: 1}}, 3},
		{[]Estimate{{Variance: 4, DF: 3}, {Variance: 4, DF: 0}}, 64 / (16.0 / 3)},
		{[]Estimate{{Variance: 4}, {Variance: 9}}, 0},
		{[]Estimate{{Variance: 0, DF: 5}}, 0},
	} {
		got := MergeSums(tc.parts)
		if math.Abs(got.DF-tc.want) > 1e-9*tc.want {
			t.Errorf("MergeSums(%+v).DF = %v, want %v", tc.parts, got.DF, tc.want)
		}
		if want := Conf95.multiplier(tc.want) * math.Sqrt(got.Variance); math.Abs(got.Bound-want) > 1e-12*want {
			t.Errorf("MergeSums(%+v).Bound = %v, want %v", tc.parts, got.Bound, want)
		}
	}
	// A window whose one-item cells borrow one pooled s² holds one term
	// for them, on ΣN − 1 degrees of freedom: five panes, one value each.
	var ms []Moments
	for _, v := range []float64{3, 5, 4, 8, 5} {
		ms = append(ms, MomentsOf(10, 10, []float64{v}))
	}
	pools := PoolStrata(ms, nil, nil)
	got := SumOf(ms, pools, Conf95)
	// Values 3,5,4,8,5: mean 5, Σ(v−5)² = 14, s² = 3.5 on 4 df; each cell
	// adds C(C−1)s² = 90·3.5.
	if math.Abs(got.Variance-5*90*3.5) > 1e-9 || math.Abs(got.DF-4) > 1e-12 || got.Value != 250 {
		t.Errorf("pooled window = %+v, want 250 with variance %v on 4 df", got, 5*90*3.5)
	}
	if mean := MeanOf(ms, pools, Conf95); math.Abs(mean.Variance-5*90*3.5/2500) > 1e-12 || math.Abs(mean.DF-4) > 1e-12 {
		t.Errorf("pooled window mean = %+v, want variance %v on 4 df", mean, 5*90*3.5/2500)
	}
	// One sampled value in the whole window still has no variance.
	if got := SumOf(ms[:1], PoolStrata(ms[:1], nil, nil), Conf95); got.Bound != 0 {
		t.Errorf("single-value window = %+v, want bound 0", got)
	}
	// Strata pool apart: two strata of one-item cells, two terms.
	keys := []string{"a", "b", "a", "b", "a"}
	if got := PoolStrata(ms, keys, nil); len(got) != 2 || got[0].n != 3 || got[1].n != 2 {
		t.Errorf("pools by stratum = %+v, want 3 values of a and 2 of b", got)
	}
	if got := PoolStrata(ms[:0], nil, nil); got != nil {
		t.Errorf("no cells pooled into %+v", got)
	}
}

// TestSmallCellCoverage sweeps the window shapes small samples make —
// per-cell n ∈ {1, 2, 3, 5, 10, 100} × panes ∈ {1, 2, 5} of one stratum,
// each pane a fresh population of 5n items of which n are sampled — over
// Gaussian and lognormal (σ = 0.55) values: wherever the window holds at
// least two sampled values, the ±2σ bound must cover the population total
// and mean at no less than nominal − 2.5 points (Gaussian) or 0.90
// (lognormal). Every value must be the Eq. 2/8 estimate of old, bit for
// bit: only the bound moves.
func TestSmallCellCoverage(t *testing.T) {
	const trials = 4000
	nominal := math.Erf(math.Sqrt2)
	rng := xrand.New(61)
	for _, dist := range []struct {
		name  string
		draw  func() float64
		floor float64
	}{
		{"gaussian", func() float64 { return rng.Gaussian(10, 3) }, nominal - 0.025},
		{"lognormal", func() float64 { return math.Exp(rng.Gaussian(1, 0.55)) }, 0.90},
	} {
		for _, n := range []int{1, 2, 3, 5, 10, 100} {
			for _, panes := range []int{1, 2, 5} {
				if n*panes < 2 {
					continue
				}
				count := 5 * n
				ms := make([]Moments, panes)
				vals := make([]float64, count)
				var sumCovered, meanCovered int
				for range trials {
					var total float64
					for p := range ms {
						for i := range vals {
							vals[i] = dist.draw()
							total += vals[i]
						}
						ms[p] = MomentsOf(int64(count), float64(count)/float64(n), vals[:n])
					}
					pools := PoolStrata(ms, nil, nil)
					sum, mean := SumOf(ms, pools, Conf95), MeanOf(ms, pools, Conf95)
					if sum.Value != parentSumValue(ms) || mean.Value != parentMeanValue(ms) {
						t.Fatalf("%s n=%d panes=%d: values %v, %v moved from %v, %v", dist.name, n, panes,
							sum.Value, mean.Value, parentSumValue(ms), parentMeanValue(ms))
					}
					if sum.Contains(total) {
						sumCovered++
					}
					if mean.Contains(total / float64(count*panes)) {
						meanCovered++
					}
				}
				label := fmt.Sprintf("%s n=%d panes=%d", dist.name, n, panes)
				t.Logf("%-26s sum %.3f  mean %.3f", label, float64(sumCovered)/trials, float64(meanCovered)/trials)
				for kind, covered := range map[string]int{"sum": sumCovered, "mean": meanCovered} {
					if rate := float64(covered) / trials; rate < dist.floor {
						t.Errorf("%s: %s covers %.3f, want at least %.3f", label, kind, rate, dist.floor)
					}
				}
			}
		}
	}
}

// parentSumValue and parentMeanValue are Eqs. 2 and 8 as SumOf and MeanOf
// computed them before bounds took the t quantile.
func parentSumValue(ms []Moments) float64 {
	var value float64
	for _, m := range ms {
		value += m.Sum * m.Weight
	}
	return value
}

func parentMeanValue(ms []Moments) float64 {
	total := float64(totalCount(ms))
	var value float64
	for _, m := range ms {
		if m.Count > 0 && m.N > 0 {
			value += float64(m.Count) / total * (m.Sum / float64(m.N))
		}
	}
	return value
}
