package query

import (
	"fmt"
	"reflect"
	"testing"

	"streamapprox/internal/estimate"
	"streamapprox/internal/sampling"
	"streamapprox/internal/stream"
	"streamapprox/internal/xrand"
)

// sharingQueries is every built-in query at two confidences, histograms
// on one edge set (given twice, once unsorted), on as many edges below
// every sampled value, and on more edges.
func sharingQueries() []Query {
	var qs []Query
	for _, conf := range []estimate.Confidence{estimate.Conf95, estimate.Conf997} {
		qs = append(qs,
			NewSum(conf), NewCount(conf), NewMean(conf),
			NewGroupBySum(conf), NewGroupByMean(conf), NewGroupByCount(conf),
			NewHistogram([]float64{0, 50, 100, 150}, conf),
			NewHistogram([]float64{150, 0, 100, 50}, conf),
			NewHistogram([]float64{-150, -100, -50, 0}, conf),
			NewHistogram([]float64{0, 25, 50, 100, 150}, conf),
		)
	}
	return qs
}

// sharingSample is a random OASRS sample of one to five strata, values in
// (0, 140), at a budget small enough to leave one-item cells, plus, now
// and then, an entry that sampled nothing of what it saw.
func sharingSample(rng *xrand.Rand) *sampling.Sample {
	o := sampling.NewOASRS(1+rng.Intn(40), nil, rng)
	strata := 1 + rng.Intn(5)
	b := stream.GetEventBatch()
	defer b.Release()
	for i := 0; i < 1+rng.Intn(300); i++ {
		k := rng.Intn(strata)
		b.AppendEvent(stream.Event{Stratum: fmt.Sprint("s", k), Value: 20*float64(k) + 60*rng.Float64()})
	}
	o.AddBatch(b, 0, b.Len())
	s := o.Finish()
	if rng.Intn(3) == 0 {
		s.Strata = append(s.Strata, sampling.StratumSample{Stratum: "empty", Count: int64(1 + rng.Intn(9)), Weight: 1})
	}
	return s
}

// SummarizesAlike holds for a pair exactly when the two summaries of a
// stratified sample are equal, and never for a sample with Keys.
func TestSummarizesAlikeIffSummariesEqual(t *testing.T) {
	qs := sharingQueries()
	rng := xrand.New(37)
	alike, oneItem, empty := 0, 0, 0
	for trial := 0; trial < 200; trial++ {
		s := sharingSample(rng)
		for _, st := range s.Strata {
			switch len(st.Values) {
			case 0:
				empty++
			case 1:
				oneItem++
			}
		}
		sums := make([]Summary, len(qs))
		for i, q := range qs {
			sums[i] = q.Summarize(s)
		}
		for i, a := range qs {
			for j, b := range qs {
				got, want := SummarizesAlike(a, b, s), reflect.DeepEqual(sums[i], sums[j])
				if got != want {
					t.Fatalf("trial %d: SummarizesAlike(%s #%d, %s #%d) = %v, summaries equal %v", trial, a.Name(), i, b.Name(), j, got, want)
				}
				if got && i != j {
					alike++
				}
			}
		}
	}
	if alike == 0 || oneItem == 0 || empty == 0 {
		t.Fatalf("sweep too narrow: %d alike pairs, %d one-item cells, %d empty entries", alike, oneItem, empty)
	}

	population := make([]stream.Event, 600)
	for i := range population {
		population[i] = stream.Event{Stratum: []string{"tcp", "udp", "icmp"}[i%3], Value: rng.Gaussian(100, 30)}
	}
	mixed := sampling.NewRandomSortSRS(0.2, rng).SampleBatch(population)
	for _, a := range qs {
		for _, b := range qs {
			if SummarizesAlike(a, b, mixed) {
				t.Fatalf("%s and %s are alike over a sample with Keys", a.Name(), b.Name())
			}
		}
	}
}
