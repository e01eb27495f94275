package estimate

import "math"

// The 68-95-99.7 rule multiplies σ by 1, 2 or 3, which is right when σ is
// known. Eqs. 6 and 9 estimate it from the sample, and a window of small
// (pane, stratum) cells estimates it from a handful of values: the honest
// multiplier is then the two-sided Student-t quantile at the same tail
// probability, taken at the Welch–Satterthwaite degrees of freedom of the
// variance. As the degrees of freedom grow it falls to 1, 2 or 3.

// welch accumulates a variance as a sum of independent terms, each
// estimated with its own degrees of freedom, and the Welch–Satterthwaite
// degrees of freedom of the sum: ν = (Σ vᵢ)² / Σ (vᵢ² / νᵢ). A term with
// νᵢ ≤ 0 is known exactly (or comes from a normal-limit bound) and adds
// to the variance only.
type welch struct {
	variance float64
	denom    float64 // Σ vᵢ²/νᵢ over the terms with finite νᵢ
}

func (w *welch) add(v, df float64) {
	w.variance += v
	if v > 0 && df > 0 {
		w.denom += v / df * v
	}
}

// df returns ν, or 0 — the normal limit — when no term has finite
// degrees of freedom (or the sums left the float range).
func (w *welch) df() float64 {
	if w.denom <= 0 || w.variance <= 0 {
		return 0
	}
	nu := w.variance / w.denom * w.variance
	if math.IsNaN(nu) || math.IsInf(nu, 0) {
		return 0
	}
	return nu
}

// exactDF is the largest ν whose quantile comes from tTable; above it the
// Cornish–Fisher expansion is within 1e-4 of the exact value.
const exactDF = 30

// tTable[k][ν] is the two-sided Student-t quantile at ν degrees of
// freedom for the coverage of ±(k+1)σ under the normal law.
var tTable = func() (tab [3][exactDF + 1]float64) {
	for k := range tab {
		z := float64(k + 1)
		cover := math.Erf(z / math.Sqrt2)
		for nu := 1; nu <= exactDF; nu++ {
			// tCover rises in q; the ν = 1 quantile bounds every other.
			lo, hi := z, math.Tan(cover*math.Pi/2)
			for range 64 {
				mid := (lo + hi) / 2
				if tCover(mid, nu) < cover {
					lo = mid
				} else {
					hi = mid
				}
			}
			tab[k][nu] = (lo + hi) / 2
		}
	}
	return tab
}()

// tCover is P(|T| ≤ q) for Student's t at integer ν, in closed form
// (Abramowitz & Stegun 26.7.3–4): with θ = atan(q/√ν),
//
//	ν odd:  (2/π)·(θ + sinθ·(cosθ + ⅔cos³θ + … + (2·4…(ν−3))/(3·5…(ν−2))·cos^(ν−2)θ))
//	ν even: sinθ·(1 + ½cos²θ + … + (1·3…(ν−3))/(2·4…(ν−2))·cos^(ν−2)θ)
func tCover(q float64, nu int) float64 {
	theta := math.Atan(q / math.Sqrt(float64(nu)))
	sin, cos := math.Sincos(theta)
	c2 := cos * cos
	if nu%2 == 1 {
		var sum float64
		term := cos
		for k := 3; k <= nu; k += 2 {
			sum += term
			term *= c2 * float64(k-1) / float64(k)
		}
		return 2 / math.Pi * (theta + sin*sum)
	}
	var sum float64
	term := 1.0
	for k := 2; k <= nu; k += 2 {
		sum += term
		term *= c2 * float64(k-1) / float64(k)
	}
	return sin * sum
}

// multiplier returns the bound's multiplier at df degrees of freedom: the
// two-sided Student-t quantile whose coverage is that of ±Sigmas() under
// the normal law. df ≤ 0 stands for the normal limit, where it is
// Sigmas() exactly. Below exactDF a non-integer df interpolates the exact
// quantiles linearly in 1/df (conservatively: the quantile is convex
// there); above it the Cornish–Fisher expansion in 1/df is used.
func (c Confidence) multiplier(df float64) float64 {
	z := c.Sigmas()
	if !(df > 0) || math.IsInf(df, 1) {
		return z
	}
	if df <= exactDF {
		tab := &tTable[int(z)-1]
		lo := math.Floor(df)
		if lo < 1 {
			return tab[1]
		}
		if lo == df {
			return tab[int(lo)]
		}
		w := (1/lo - 1/df) / (1/lo - 1/(lo+1))
		return tab[int(lo)] + w*(tab[int(lo)+1]-tab[int(lo)])
	}
	z2 := z * z
	g1 := (z2 + 1) * z / 4
	g2 := ((5*z2+16)*z2 + 3) * z / 96
	g3 := (((3*z2+19)*z2+17)*z2 - 15) * z / 384
	g4 := ((((79*z2+776)*z2+1482)*z2-1920)*z2 - 945) * z / 92160
	x := 1 / df
	return z + x*(g1+x*(g2+x*(g3+x*g4)))
}
