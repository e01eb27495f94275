package query

import (
	"reflect"
	"slices"
	"testing"

	"streamapprox/internal/estimate"
	"streamapprox/internal/sampling"
	"streamapprox/internal/stream"
	"streamapprox/internal/xrand"
)

// rowsOf rebuilds the {stratum, value} rows a sample entry stood for
// when samples held rows.
func rowsOf(st sampling.StratumSample) []stream.Event {
	rows := make([]stream.Event, len(st.Values))
	for i, v := range st.Values {
		rows[i] = stream.Event{Stratum: st.Stratum, Value: v}
		if st.Keys != nil {
			rows[i].Stratum = st.Keys[i]
		}
	}
	return rows
}

// rowGroupBy is the group-by evaluation over rows that Summarize and
// Combine replaced, kept as the reference: an entry is mixed when some
// row's stratum differs from the entry's, mixed-strata entries are
// exploded by row stratum with expansion counts, each group is estimated
// over its rows, the overall over the sample as given.
func rowGroupBy(kind Kind, s *sampling.Sample) Result {
	rowEstimate := func(s *sampling.Sample) estimate.Estimate {
		switch kind {
		case KindSum:
			return estimate.Sum(s, estimate.Conf95)
		case KindMean:
			return estimate.Mean(s, estimate.Conf95)
		default:
			return estimate.Count(s, estimate.Conf95)
		}
	}
	byKey := make(map[string][]sampling.StratumSample)
	for _, st := range s.Strata {
		rows := rowsOf(st)
		if !slices.ContainsFunc(rows, func(r stream.Event) bool { return r.Stratum != st.Stratum }) {
			byKey[st.Stratum] = append(byKey[st.Stratum], st)
			continue
		}
		values := make(map[string][]float64)
		for _, r := range rows {
			values[r.Stratum] = append(values[r.Stratum], r.Value)
		}
		for key, vals := range values {
			byKey[key] = append(byKey[key], sampling.StratumSample{
				Stratum: key, Values: vals, Weight: st.Weight,
				Count: int64(st.Weight*float64(len(vals)) + 0.5),
			})
		}
	}
	groups := make(map[string]estimate.Estimate)
	for key, strata := range byKey {
		groups[key] = rowEstimate(&sampling.Sample{Strata: strata})
	}
	return Result{Kind: kind, Overall: rowEstimate(s), Groups: groups}
}

// A stratum-blind sample takes the explode path inside Summarize; the
// result must be the row evaluation's, float for float — alone, and
// combined with a stratified interval that repeats its keys.
func TestGroupBySummaryMatchesRowsOnMixedSample(t *testing.T) {
	rng := xrand.New(8)
	var population []stream.Event
	for i := 0; i < 3000; i++ {
		key := []string{"tcp", "tcp", "tcp", "udp", "udp", "icmp"}[i%6]
		population = append(population, stream.Event{Stratum: key, Value: rng.Gaussian(100, 30)})
	}
	mixed := sampling.NewRandomSortSRS(0.1, rng).SampleBatch(population)
	if len(mixed.Strata) != 1 || !mixedStrata(mixed.Strata[0]) {
		t.Fatalf("precondition: SRS sample is not one mixed entry: %d entries", len(mixed.Strata))
	}
	o := sampling.NewOASRS(120, nil, rng)
	b := stream.BatchOf(population[:900])
	defer b.Release()
	o.AddBatch(b, 0, b.Len())
	stratified := o.Finish()
	both := &sampling.Sample{Strata: append(append([]sampling.StratumSample(nil), mixed.Strata...), stratified.Strata...)}

	for _, q := range []*GroupBy{NewGroupBySum(estimate.Conf95), NewGroupByMean(estimate.Conf95), NewGroupByCount(estimate.Conf95)} {
		sum := q.Summarize(mixed)
		if len(sum.Strata) != 1 || len(sum.Groups) != 3 {
			t.Fatalf("%s: summary of a mixed entry has %d strata, %d groups", q.Name(), len(sum.Strata), len(sum.Groups))
		}
		for _, s := range []*sampling.Sample{mixed, both} {
			want := rowGroupBy(q.kind, s)
			if got := evaluate(q, s); !reflect.DeepEqual(got, want) {
				t.Errorf("%s: one-sample estimate = %+v\nrows give %+v", q.Name(), got, want)
			}
		}
		// Interval by interval, as a window over two slides combines them.
		want := rowGroupBy(q.kind, both)
		if got := q.Combine([]Summary{sum, q.Summarize(stratified)}); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: Combine of two intervals = %+v\nrows give %+v", q.Name(), got, want)
		}
	}
}

// Every bucket's closed-form estimate must agree with the indicator
// query evaluated row by row, and a value on an edge belongs to the
// bucket the edge opens.
func TestHistogramSummaryMatchesIndicatorPasses(t *testing.T) {
	rng := xrand.New(9)
	o := sampling.NewOASRS(300, nil, rng)
	b := stream.GetEventBatch()
	defer b.Release()
	for i := 0; i < 5000; i++ {
		b.AppendEvent(stream.Event{Stratum: string(rune('a' + i%3)), Value: rng.Gaussian(50, 30)})
	}
	o.AddBatch(b, 0, b.Len())
	s := o.Finish()
	s.Strata[0].Values[0] = 25 // exactly on an edge
	h := NewHistogram([]float64{0, 25, 50, 75, 100}, estimate.Conf95)
	res := evaluate(h, s)
	if res.Overall.Value != 5000 || len(res.Buckets) != 4 {
		t.Fatalf("overall %v, %d buckets", res.Overall.Value, len(res.Buckets))
	}
	for _, b := range res.Buckets {
		want := estimate.LinearFunc(s, func(v float64) float64 {
			if v >= b.Lo && v < b.Hi {
				return 1
			}
			return 0
		}, estimate.Conf95)
		if b.Count.Value != want.Value || !nearly(b.Count.Variance, want.Variance) || !nearly(b.Count.Bound, want.Bound) {
			t.Errorf("bucket [%v, %v): %+v, indicator pass gives %+v", b.Lo, b.Hi, b.Count, want)
		}
	}
}

func nearly(a, b float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d <= 1e-12*max(a, b)
}
