package query

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"streamapprox/internal/estimate"
	"streamapprox/internal/sampling"
	"streamapprox/internal/xrand"
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
	return combine(q, []Summary{q.Summarize(s)})
}

// combine is q's Combine into a Result of its own.
func combine(q Query, sums []Summary) Result {
	var res Result
	q.Combine(sums, &res)
	return res
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

// TestCombinePoolsWithoutAllocating: a window's cells are keyed in one
// pass and a borrowing cell finds its stratum's pool by a scan, so a sum
// or mean over cells that borrow a pooled variance allocates nothing while
// they fit the stack buffers — and pools each stratum apart.
func TestCombinePoolsWithoutAllocating(t *testing.T) {
	var sums []Summary
	for p := range 6 {
		var sum Summary
		for k, stratum := range []string{"a", "b", "c", "d", "e"} {
			values := []float64{float64(p + k)}
			if stratum == "e" {
				values = append(values, float64(2*p+1), float64(p*p))
			}
			sum.Strata = append(sum.Strata, StratumSummary{stratum, estimate.MomentsOf(9, 9/float64(len(values)), values)})
		}
		sums = append(sums, sum)
	}
	for _, q := range []Query{NewSum(estimate.Conf95), NewMean(estimate.Conf95)} {
		var res Result
		if n := testing.AllocsPerRun(50, func() { q.Combine(sums, &res) }); n != 0 {
			t.Errorf("%s: %v allocations per Combine, want 0", q.Name(), n)
		}
	}
	// The sum's variance is its strata's, each pooled apart.
	q := NewSum(estimate.Conf95)
	var apart float64
	for k := range sums[0].Strata {
		var one []Summary
		for _, sum := range sums {
			one = append(one, Summary{Strata: sum.Strata[k : k+1]})
		}
		apart += combine(q, one).Overall.Variance
	}
	if got := combine(q, sums).Overall.Variance; got == 0 || math.Abs(got-apart) > 1e-9*apart {
		t.Errorf("variance %v, want its strata's %v", got, apart)
	}
}

// TestCombineIntoReusedResult: a Result combined into again holds the
// new window's estimate alone — no group or bucket of the window before
// it — equal to a Combine into a zero Result.
func TestCombineIntoReusedResult(t *testing.T) {
	wide := fullSample(map[string][]float64{"a": {1, 2, 12}, "b": {5, 25}, "c": {7}})
	narrow := fullSample(map[string][]float64{"b": {3, 11}})
	for _, q := range []Query{NewSum(estimate.Conf95), NewGroupByMean(estimate.Conf95),
		NewHistogram([]float64{0, 10, 20}, estimate.Conf95)} {
		var res Result
		for _, s := range []*sampling.Sample{wide, narrow, wide} {
			sums := []Summary{q.Summarize(s)}
			q.Combine(sums, &res)
			if want := combine(q, sums); !reflect.DeepEqual(res, want) {
				t.Errorf("%s: reused result %+v, want %+v", q.Name(), res, want)
			}
		}
	}
}

// bucketOf's branch-free count finds the bucket the binary search finds:
// over random sorted edges with duplicates, up to past the 32 edges where
// bucketOf switches, ±Inf among them, for NaN, ±Inf, every edge itself
// and values between them.
func TestBucketOfMatchesBinarySearch(t *testing.T) {
	rng := xrand.New(17)
	for trial := 0; trial < 2000; trial++ {
		edges := make([]float64, rng.Intn(40))
		for i := range edges {
			switch rng.Intn(12) {
			case 0:
				edges[i] = math.Inf(-1)
			case 1:
				edges[i] = math.Inf(1)
			default:
				edges[i] = float64(rng.Intn(8)) // duplicates are likely
			}
		}
		h := NewHistogram(edges, estimate.Conf95)
		values := []float64{math.NaN(), math.Inf(-1), math.Inf(1), -1, 8, rng.Gaussian(4, 3)}
		for _, e := range h.edges {
			values = append(values, e, math.Nextafter(e, math.Inf(-1)), math.Nextafter(e, math.Inf(1)))
		}
		for _, v := range values {
			if got, want := h.countBucket(v), h.searchBucket(v); got != want {
				t.Fatalf("edges %v: counting finds bucket %d for %v, binary search %d", h.edges, got, v, want)
			}
		}
	}
}

// BenchmarkBucketOf times the edge count and the binary search over
// Gaussian values spread across the edges, at the 7 edges every bench
// workload's histogram has and at sizes around bucketOf's crossover.
func BenchmarkBucketOf(b *testing.B) {
	rng := xrand.New(5)
	values := make([]float64, 4096)
	for i := range values {
		values[i] = rng.Gaussian(0.5, 0.3)
	}
	for _, n := range []int{7, 16, 32, 48, 64} {
		edges := make([]float64, n)
		for i := range edges {
			edges[i] = float64(i) / float64(n-1)
		}
		h := NewHistogram(edges, estimate.Conf95)
		for _, way := range []struct {
			name string
			f    func(float64) int
		}{{"count", h.countBucket}, {"search", h.searchBucket}} {
			b.Run(fmt.Sprintf("edges=%d/%s", n, way.name), func(b *testing.B) {
				sum := 0
				for i := 0; i < b.N; i++ {
					sum += way.f(values[i&(len(values)-1)])
				}
				sink = sum
			})
		}
	}
}

var sink int
