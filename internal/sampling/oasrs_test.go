package sampling

import (
	"math"
	"testing"
	"testing/quick"

	"streamapprox/internal/stream"
	"streamapprox/internal/xrand"
)

func feed(s *OASRS, events []stream.Event) *Sample {
	for _, e := range events {
		s.Add(e)
	}
	return s.Finish()
}

func TestOASRSKeepsEveryStratum(t *testing.T) {
	// Three sub-streams with wildly different arrival rates; the rare one
	// must still appear in the sample — the core guarantee of OASRS.
	o := NewOASRS(30, nil, xrand.New(1))
	events := append(append(mkEvents("big", 8000), mkEvents("mid", 2000)...), mkEvents("rare", 3)...)
	sample := feed(o, events)
	if len(sample.Strata) != 3 {
		t.Fatalf("got %d strata, want 3", len(sample.Strata))
	}
	rare := sample.Stratum("rare")
	if rare == nil || len(rare.Values) != 3 {
		t.Errorf("rare stratum not fully kept: %+v", rare)
	}
}

func TestOASRSWeightsEquation1(t *testing.T) {
	o := NewOASRS(10, nil, xrand.New(2)) // a, seen first, is sized 10/1; b 10/2
	events := append(mkEvents("a", 100), mkEvents("b", 5)...)
	sample := feed(o, events)

	a := sample.Stratum("a")
	if a == nil {
		t.Fatal("missing stratum a")
	}
	// Ci=100 > Ni=10 -> Wi = Ci/Yi = 100/10.
	if got, want := a.Weight, 10.0; got != want {
		t.Errorf("weight(a) = %v, want %v", got, want)
	}
	if a.Count != 100 || len(a.Values) != 10 {
		t.Errorf("a: Count=%d Values=%d", a.Count, len(a.Values))
	}

	b := sample.Stratum("b")
	// Ci=5 <= Ni=5 -> Wi = 1, all items kept.
	if b.Weight != 1 || len(b.Values) != 5 {
		t.Errorf("b: weight=%v items=%d, want weight 1 and all 5 items", b.Weight, len(b.Values))
	}
}

func TestOASRSEqualShareBudgetSplit(t *testing.T) {
	o := NewOASRS(30, EqualShare{}, xrand.New(3))
	// First stratum seen alone gets the full budget; later strata shrink
	// the allocation of strata created after them. With three strata
	// arriving interleaved from the start, sizes are 30, 15, 10.
	events := []stream.Event{
		{Stratum: "a", Value: 1}, {Stratum: "b", Value: 2}, {Stratum: "c", Value: 3},
	}
	for i := 0; i < 200; i++ {
		for _, s := range []string{"a", "b", "c"} {
			events = append(events, stream.Event{Stratum: s, Value: float64(i)})
		}
	}
	sample := feed(o, events)
	sizes := map[string]int{}
	for _, st := range sample.Strata {
		sizes[st.Stratum] = len(st.Values)
	}
	if sizes["a"] != 30 || sizes["b"] != 15 || sizes["c"] != 10 {
		t.Errorf("reservoir sizes = %v, want a:30 b:15 c:10", sizes)
	}
}

func TestOASRSFinishResets(t *testing.T) {
	o := NewOASRS(10, nil, xrand.New(4))
	feed(o, mkEvents("a", 50))
	sample := feed(o, mkEvents("b", 5))
	if len(sample.Strata) != 1 || sample.Strata[0].Stratum != "b" {
		t.Errorf("state leaked across intervals: %+v", sample.Strata)
	}
}

func TestOASRSAdaptsToArrivalRateChange(t *testing.T) {
	// Interval 1: stratum a dominant. Interval 2: stratum a nearly gone.
	// The weights must track the per-interval counts, with no memory.
	o := NewOASRS(5, nil, xrand.New(5))
	s1 := feed(o, mkEvents("a", 1000))
	s2 := feed(o, mkEvents("a", 2))
	if w := s1.Stratum("a").Weight; w != 200 {
		t.Errorf("interval 1 weight = %v, want 200", w)
	}
	if w := s2.Stratum("a").Weight; w != 1 {
		t.Errorf("interval 2 weight = %v, want 1 (rate dropped)", w)
	}
}

func TestOASRSSetBudget(t *testing.T) {
	o := NewOASRS(10, nil, xrand.New(6))
	o.SetBudget(50)
	if o.Budget() != 50 {
		t.Errorf("Budget = %d", o.Budget())
	}
	o.SetBudget(-3)
	if o.Budget() != 1 {
		t.Errorf("negative budget should clamp to 1, got %d", o.Budget())
	}
	sample := feed(o, mkEvents("a", 100))
	if got := len(sample.Stratum("a").Values); got != 1 {
		t.Errorf("budget 1 should keep 1 item, got %d", got)
	}
}

// Property: for any workload, per-stratum sampled count never exceeds Ni,
// Count always equals the number of items fed, and weight*Yi >= Ci is
// within one item of exact reconstruction when Ci > Ni.
func TestOASRSInvariants(t *testing.T) {
	cfg := &quick.Config{MaxCount: 50}
	if err := quick.Check(func(sizesRaw []uint16, seed uint64) bool {
		if len(sizesRaw) == 0 {
			return true
		}
		if len(sizesRaw) > 8 {
			sizesRaw = sizesRaw[:8]
		}
		o := NewOASRS(40, nil, xrand.New(seed))
		want := map[string]int64{}
		for si, raw := range sizesRaw {
			n := int(raw % 2000)
			key := string(rune('a' + si))
			want[key] = int64(n)
			for i := 0; i < n; i++ {
				o.Add(stream.Event{Stratum: key, Value: float64(i)})
			}
		}
		sample := o.Finish()
		for _, st := range sample.Strata {
			if st.Count != want[st.Stratum] {
				return false
			}
			yi := len(st.Values)
			if int64(yi) > st.Count {
				return false
			}
			if st.Count > int64(yi) && yi > 0 {
				// Wi*Yi must reconstruct Ci exactly (Wi = Ci/Yi).
				if math.Abs(st.Weight*float64(yi)-float64(st.Count)) > 1e-9 {
					return false
				}
			}
			if st.Count <= int64(yi) && st.Weight != 1 {
				return false
			}
		}
		return true
	}, cfg); err != nil {
		t.Error(err)
	}
}

// Property: the weighted-sum estimator over an OASRS sample is unbiased.
// We check that across many trials the mean estimate converges to the true
// sum within a few standard errors.
func TestOASRSUnbiasedSumEstimate(t *testing.T) {
	rng := xrand.New(7)
	events := make([]stream.Event, 0, 3000)
	var trueSum float64
	for i := 0; i < 1000; i++ {
		for s, mu := range map[string]float64{"a": 10, "b": 1000, "c": 10000} {
			v := rng.Gaussian(mu, mu/10)
			events = append(events, stream.Event{Stratum: s, Value: v})
			trueSum += v
		}
	}
	const trials = 300
	var estSum float64
	for trial := 0; trial < trials; trial++ {
		o := NewOASRS(300, nil, rng.Split())
		sample := feed(o, events)
		for _, st := range sample.Strata {
			var s float64
			for _, v := range st.Values {
				s += v
			}
			estSum += s * st.Weight
		}
	}
	avg := estSum / trials
	if rel := math.Abs(avg-trueSum) / trueSum; rel > 0.01 {
		t.Errorf("mean estimate %.0f vs true %.0f (rel err %.4f) — estimator biased?", avg, trueSum, rel)
	}
}

func TestSampleAccessors(t *testing.T) {
	s := &Sample{Strata: []StratumSample{
		{Stratum: "a", Values: mkValues(2), Count: 10, Weight: 5},
		{Stratum: "b", Values: mkValues(3), Count: 3, Weight: 1},
	}}
	if s.TotalCount() != 13 {
		t.Errorf("TotalCount = %d", s.TotalCount())
	}
	if s.SampledCount() != 5 {
		t.Errorf("SampledCount = %d", s.SampledCount())
	}
	if s.Stratum("b") == nil || s.Stratum("zzz") != nil {
		t.Error("Stratum lookup broken")
	}
	if s.Strata[0].SampledCount() != 2 {
		t.Error("StratumSample.SampledCount broken")
	}
}

func BenchmarkOASRSAdd(b *testing.B) {
	o := NewOASRS(1000, nil, xrand.New(1))
	events := [3]stream.Event{
		{Stratum: "a", Value: 1}, {Stratum: "b", Value: 2}, {Stratum: "c", Value: 3},
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		o.Add(events[i%3])
	}
}
