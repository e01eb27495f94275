package query

import (
	"math"
	"testing"

	"streamapprox/internal/estimate"
	"streamapprox/internal/sampling"
)

func fullSample(strata map[string][]float64) *sampling.Sample {
	var s sampling.Sample
	for key, vals := range strata {
		s.Strata = append(s.Strata, sampling.StratumSample{
			Stratum: key, Values: vals, Count: int64(len(vals)), Weight: 1,
		})
	}
	return &s
}

// evaluate estimates from one sample alone: a window of one interval.
func evaluate(q Query, s *sampling.Sample) Result {
	return q.Combine([]Summary{q.Summarize(s)})
}

func TestAggregateSum(t *testing.T) {
	q := NewSum(estimate.Conf95)
	if q.Name() != "sum" {
		t.Errorf("Name = %q", q.Name())
	}
	res := evaluate(q, fullSample(map[string][]float64{"a": {1, 2}, "b": {3}}))
	if res.Overall.Value != 6 {
		t.Errorf("sum = %v, want 6", res.Overall.Value)
	}
	if res.Kind != KindSum {
		t.Errorf("Kind = %v", res.Kind)
	}
}

func TestAggregateCount(t *testing.T) {
	res := evaluate(NewCount(estimate.Conf95), fullSample(map[string][]float64{"a": {1, 2, 3}}))
	if res.Overall.Value != 3 {
		t.Errorf("count = %v", res.Overall.Value)
	}
}

func TestAggregateMean(t *testing.T) {
	res := evaluate(NewMean(estimate.Conf95), fullSample(map[string][]float64{"a": {2, 4}, "b": {6}}))
	if res.Overall.Value != 4 {
		t.Errorf("mean = %v, want 4", res.Overall.Value)
	}
}

func TestGroupByMeanPerStratum(t *testing.T) {
	q := NewGroupByMean(estimate.Conf95)
	if q.Name() != "groupby-mean" {
		t.Errorf("Name = %q", q.Name())
	}
	res := evaluate(q, fullSample(map[string][]float64{"tcp": {10, 20}, "udp": {100}}))
	if len(res.Groups) != 2 {
		t.Fatalf("groups = %v", res.Groups)
	}
	if res.Groups["tcp"].Value != 15 || res.Groups["udp"].Value != 100 {
		t.Errorf("group means = %v", res.Groups)
	}
	if math.Abs(res.Overall.Value-130.0/3) > 1e-9 {
		t.Errorf("overall mean = %v", res.Overall.Value)
	}
}

func TestGroupBySumAndCount(t *testing.T) {
	s := fullSample(map[string][]float64{"a": {1, 2}, "b": {5}})
	sums := evaluate(NewGroupBySum(estimate.Conf95), s)
	if sums.Groups["a"].Value != 3 || sums.Groups["b"].Value != 5 {
		t.Errorf("group sums = %v", sums.Groups)
	}
	counts := evaluate(NewGroupByCount(estimate.Conf95), s)
	if counts.Groups["a"].Value != 2 || counts.Groups["b"].Value != 1 {
		t.Errorf("group counts = %v", counts.Groups)
	}
}

func TestGroupByWeightedSample(t *testing.T) {
	// 2 items sampled out of 10, weight 5: group sum estimate must scale.
	s := &sampling.Sample{Strata: []sampling.StratumSample{{
		Stratum: "a",
		Values:  []float64{4, 6},
		Count:   10,
		Weight:  5,
	}}}
	res := evaluate(NewGroupBySum(estimate.Conf95), s)
	if res.Groups["a"].Value != 50 {
		t.Errorf("weighted group sum = %v, want 50", res.Groups["a"].Value)
	}
	if res.Groups["a"].Bound <= 0 {
		t.Error("partial sample should carry a positive error bound")
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram([]float64{0, 10, 20, 30}, estimate.Conf95)
	if h.Name() != "histogram" {
		t.Errorf("Name = %q", h.Name())
	}
	s := fullSample(map[string][]float64{"a": {1, 5, 15, 25, 25}})
	buckets := evaluate(h, s).Buckets
	if len(buckets) != 3 {
		t.Fatalf("buckets = %d, want 3", len(buckets))
	}
	wants := []float64{2, 1, 2}
	for i, b := range buckets {
		if b.Count.Value != wants[i] {
			t.Errorf("bucket [%v,%v) count = %v, want %v", b.Lo, b.Hi, b.Count.Value, wants[i])
		}
	}
}

func TestHistogramUnsortedEdges(t *testing.T) {
	h := NewHistogram([]float64{30, 0, 10}, estimate.Conf95)
	buckets := evaluate(h, fullSample(map[string][]float64{"a": {5}})).Buckets
	if len(buckets) != 2 || buckets[0].Lo != 0 {
		t.Errorf("edges not sorted: %+v", buckets)
	}
}

func TestHistogramDegenerateEdges(t *testing.T) {
	h := NewHistogram([]float64{1}, estimate.Conf95)
	if got := evaluate(h, fullSample(map[string][]float64{"a": {5}})).Buckets; got != nil {
		t.Errorf("single-edge histogram should be nil, got %v", got)
	}
}

func TestKindString(t *testing.T) {
	if KindSum.String() != "sum" || KindCount.String() != "count" || KindMean.String() != "mean" {
		t.Error("Kind.String broken")
	}
	if Kind(42).String() != "Kind(42)" {
		t.Errorf("unknown kind = %q", Kind(42).String())
	}
}
