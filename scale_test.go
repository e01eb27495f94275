package streamapprox

import (
	"fmt"
	"math"
	"testing"
	"time"
)

// scaleEdges are the histogram edges the scale relation is checked on,
// before scaling: systemsStream's three sub-streams and their tails.
var scaleEdges = []float64{0, 20, 900, 1100, 9000, 11000}

// scaled returns events with every value multiplied by f.
func scaled(events []Event, f float64) []Event {
	out := make([]Event, len(events))
	for i, e := range events {
		e.Value *= f
		out[i] = e
	}
	return out
}

// scaledBy returns xs multiplied by f.
func scaledBy(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * f
	}
	return out
}

// requireScaled demands got be want with every value scaled by f: SUM
// and MEAN values and bounds (values set) multiplied by f bit for bit,
// counts and COUNT estimates unchanged, bucket edges multiplied by f.
func requireScaled(t *testing.T, label string, got, want []WindowResult, f float64, values bool) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d windows, want %d", label, len(got), len(want))
	}
	same := func(what string, i int, g, w Estimate) {
		scale := 1.0
		if values {
			scale = f
		}
		if math.Float64bits(g.Value) != math.Float64bits(w.Value*scale) || math.Float64bits(g.Bound) != math.Float64bits(w.Bound*scale) {
			t.Errorf("%s: window %d %s %v ± %v, want (%v ± %v)·%v", label, i, what, g.Value, g.Bound, w.Value, w.Bound, scale)
		}
	}
	for i := range got {
		g, w := got[i], want[i]
		if !g.Start.Equal(w.Start) || !g.End.Equal(w.End) || g.Items != w.Items || g.Sampled != w.Sampled {
			t.Fatalf("%s: window %d is [%v, %v) items %d sampled %d, want [%v, %v) items %d sampled %d",
				label, i, g.Start, g.End, g.Items, g.Sampled, w.Start, w.End, w.Items, w.Sampled)
		}
		same("overall", i, g.Overall, w.Overall)
		if len(g.Groups) != len(w.Groups) {
			t.Errorf("%s: window %d groups %v, want %v", label, i, g.Groups, w.Groups)
		}
		for k, wg := range w.Groups {
			same("group "+k, i, g.Groups[k], wg)
		}
		if len(g.Buckets) != len(w.Buckets) {
			t.Fatalf("%s: window %d has %d buckets, want %d", label, i, len(g.Buckets), len(w.Buckets))
		}
		for b, wb := range w.Buckets {
			gb := g.Buckets[b]
			if gb.Lo != wb.Lo*f || gb.Hi != wb.Hi*f || gb.Count != wb.Count {
				t.Errorf("%s: window %d bucket %d %+v, want %+v with edges ·%v", label, i, b, gb, wb, f)
			}
		}
	}
}

// valueKind reports whether q estimates values (SUM and MEAN kinds), not
// counts.
func valueKind(q Query) bool { return q == Sum || q == Mean || q == GroupBySum || q == GroupByMean }

// TestWindowsScaleByPowersOfTwo: multiplying every value and histogram
// edge by 2^k multiplies every SUM and MEAN value and bound by exactly
// 2^k and leaves every count alone — a sample depends on the records'
// arrival, never on their values — for a Session of every kind, and for
// every evaluated system and Exact.
func TestWindowsScaleByPowersOfTwo(t *testing.T) {
	events := systemsStream()
	for _, k := range []int{-3, 5} {
		f := math.Ldexp(1, k)
		up := scaled(events, f)
		t.Run(fmt.Sprintf("session k=%d", k), func(t *testing.T) {
			for name, q := range allKinds {
				run := func(events []Event, edges []float64) []WindowResult {
					s := NewSession(SessionConfig{Query: q, WindowSize: 10 * time.Second, WindowSlide: 5 * time.Second,
						Fraction: 0.3, Seed: 5, HistogramEdges: edges})
					b := batchOf(events)
					defer b.Release()
					if err := s.PushBatch(b, 0, b.Len()); err != nil {
						t.Fatal(err)
					}
					return s.Close()
				}
				requireScaled(t, name, run(up, scaledBy(scaleEdges, f)), run(events, scaleEdges), f, valueKind(q))
			}
		})
		t.Run(fmt.Sprintf("systems k=%d", k), func(t *testing.T) {
			for _, sys := range evaluatedSystems {
				for name, q := range map[string]Query{"sum": Sum, "groupby-mean": GroupByMean, "histogram": Histogram} {
					cfg := Config{Fraction: 0.3, Query: q, WindowSize: 10 * time.Second,
						WindowSlide: 5 * time.Second, Seed: 17}
					cfg.HistogramEdges = scaleEdges
					want := windowsOf(t, sys, cfg, events)
					cfg.HistogramEdges = scaledBy(scaleEdges, f)
					requireScaled(t, sys.name+" "+name, windowsOf(t, sys, cfg, up), want, f, valueKind(q))
				}
			}
		})
	}
}
