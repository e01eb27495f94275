package main

import (
	"math"
	"sort"
	"time"
)

// sorted returns an ascending copy of v.
func sorted(v []float64) []float64 {
	out := append([]float64(nil), v...)
	sort.Float64s(out)
	return out
}

// quantile is the nearest-rank q-quantile of an ascending slice (0 when
// empty).
func quantile(asc []float64, q float64) float64 {
	if len(asc) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(asc)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(asc) {
		i = len(asc) - 1
	}
	return asc[i]
}

func median(v []float64) float64 { return quantile(sorted(v), 0.5) }

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// tailPercentiles are the tail levels a timing may be reported at.
var tailPercentiles = []float64{0.90, 0.95, 0.99, 0.999}

// supportedTail returns the highest of tailPercentiles that still has at
// least ten of n samples beyond it, capped at want; 0.5 when not even p90
// is supported. A p99 read off 300 samples is three observations — the
// rule keeps every reported tail backed by ten.
func supportedTail(n int, want float64) float64 {
	best := 0.5
	for _, p := range tailPercentiles {
		if beyond := n - int(math.Ceil(p*float64(n)-1e-9)); p <= want && beyond >= 10 {
			best = p
		}
	}
	return best
}

// timing is a latency distribution summarised by the rule above.
type timing struct {
	N      int
	Median float64
	Tail   float64 // value at TailAt
	TailAt float64 // the percentile Tail was read at (≤ the one asked for)
}

// summarize reports the median and the wanted tail percentile of v, the
// tail demoted to the highest percentile the sample count supports.
func summarize(v []float64, want float64) timing {
	asc := sorted(v)
	at := supportedTail(len(asc), want)
	return timing{N: len(asc), Median: quantile(asc, 0.5), Tail: quantile(asc, at), TailAt: at}
}

func msSince(from, to time.Time) float64 { return float64(to.Sub(from)) / float64(time.Millisecond) }
