package query

import (
	"math"
	"reflect"
	"testing"

	"streamapprox/internal/estimate"
	"streamapprox/internal/sampling"
	"streamapprox/internal/stream"
	"streamapprox/internal/xrand"
)

// A stratum-blind (SRS-style) sample must still yield per-stratum group
// estimates, derived from the items' own strata with expansion counts.
func TestGroupByOnMixedStrataSample(t *testing.T) {
	// 4 items sampled out of 40 (weight 10): 3 tcp, 1 udp.
	s := &sampling.Sample{Strata: []sampling.StratumSample{{
		Stratum: sampling.SRSPseudoStratum,
		Values:  []float64{100, 200, 300, 50},
		Keys:    []string{"tcp", "tcp", "tcp", "udp"},
		Count:   40,
		Weight:  10,
	}}}

	sums := evaluate(NewGroupBySum(estimate.Conf95), s)
	if len(sums.Groups) != 2 {
		t.Fatalf("groups = %v", sums.Groups)
	}
	// tcp sum estimate = (100+200+300) * 10 = 6000.
	if got := sums.Groups["tcp"].Value; got != 6000 {
		t.Errorf("tcp sum = %v, want 6000", got)
	}
	if got := sums.Groups["udp"].Value; got != 500 {
		t.Errorf("udp sum = %v, want 500", got)
	}

	counts := evaluate(NewGroupByCount(estimate.Conf95), s)
	// Expansion estimator: tcp count ≈ 3*10 = 30, udp ≈ 10.
	if got := counts.Groups["tcp"].Value; got != 30 {
		t.Errorf("tcp count = %v, want 30", got)
	}
	if got := counts.Groups["udp"].Value; got != 10 {
		t.Errorf("udp count = %v, want 10", got)
	}

	means := evaluate(NewGroupByMean(estimate.Conf95), s)
	if got := means.Groups["tcp"].Value; math.Abs(got-200) > 1e-9 {
		t.Errorf("tcp mean = %v, want 200", got)
	}
}

// A rare stratum entirely absent from the SRS sample must be absent from
// the groups (the failure mode Fig. 7 visualizes).
func TestGroupByMixedSampleMissesAbsentStratum(t *testing.T) {
	s := &sampling.Sample{Strata: []sampling.StratumSample{{
		Stratum: sampling.SRSPseudoStratum,
		Values:  []float64{1},
		Keys:    []string{"tcp"},
		Count:   1000,
		Weight:  1000,
	}}}
	res := evaluate(NewGroupBySum(estimate.Conf95), s)
	if _, ok := res.Groups["icmp"]; ok {
		t.Error("absent stratum conjured from nowhere")
	}
	if len(res.Groups) != 1 {
		t.Errorf("groups = %v", res.Groups)
	}
}

// Regrouping a stratum-blind sample by its Keys column is regrouping it
// row by row, float for float: over real SRS samples of every fraction —
// none sampled, some, all — alone and as a window of several batches'
// entries, every group-by kind gives the result of rowGroupBy, which
// rebuilds the rows and scans them for foreign strata as Summarize did
// when samples held rows.
func TestKeysRegroupingMatchesPerRowRegrouping(t *testing.T) {
	rng := xrand.New(17)
	strata := []string{"tcp", "tcp", "tcp", "udp", "udp", "icmp"}
	batch := func(n int) []stream.Event {
		events := make([]stream.Event, n)
		for i := range events {
			k := rng.Intn(len(strata))
			events[i] = stream.Event{Stratum: strata[k], Value: rng.Gaussian(float64(100*(k+1)), 25)}
		}
		return events
	}
	window := &sampling.Sample{}
	for _, fraction := range []float64{0, 0.004, 0.1, 0.5, 1} {
		s := sampling.NewRandomSortSRS(fraction, rng.Split()).SampleBatch(batch(2000))
		if st := s.Strata[0]; mixedStrata(st) != (len(st.Values) > 0) {
			t.Fatalf("fraction %v: %d values sampled, Keys set: %v", fraction, len(st.Values), st.Keys != nil)
		}
		window.Strata = append(window.Strata, s.Strata...)
		for _, s := range []*sampling.Sample{s, window} {
			for _, q := range []*GroupBy{NewGroupBySum(estimate.Conf95), NewGroupByMean(estimate.Conf95), NewGroupByCount(estimate.Conf95)} {
				if got, want := evaluate(q, s), rowGroupBy(q.kind, s); !reflect.DeepEqual(got, want) {
					t.Errorf("fraction %v, %d entries, %s:\nKeys give %+v\nrows give %+v", fraction, len(s.Strata), q.Name(), got, want)
				}
			}
		}
	}
}
