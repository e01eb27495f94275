package sampling

import (
	"math"
	"testing"
	"testing/quick"

	"streamapprox/internal/stream"
	"streamapprox/internal/xrand"
)

func TestSRSExactSize(t *testing.T) {
	for _, tc := range []struct {
		n        int
		fraction float64
		want     int
	}{
		{1000, 0.6, 600},
		{1000, 0.1, 100},
		{1000, 1.0, 1000},
		{1000, 0.0, 0},
		{7, 0.5, 4}, // ceil(3.5)
		{0, 0.5, 0},
	} {
		s := NewRandomSortSRS(tc.fraction, xrand.New(1))
		sample := s.SampleBatch(mkEvents("a", tc.n))
		if got := sample.SampledCount(); got != tc.want {
			t.Errorf("n=%d f=%v: sampled %d, want %d", tc.n, tc.fraction, got, tc.want)
		}
		if sample.TotalCount() != int64(tc.n) {
			t.Errorf("n=%d: TotalCount=%d", tc.n, sample.TotalCount())
		}
	}
}

func TestSRSFractionClamping(t *testing.T) {
	s := NewRandomSortSRS(1.7, xrand.New(2))
	if got := s.SampleBatch(mkEvents("a", 10)).SampledCount(); got != 10 {
		t.Errorf("fraction>1 should keep all, got %d", got)
	}
	s = NewRandomSortSRS(-0.5, xrand.New(2))
	if got := s.SampleBatch(mkEvents("a", 10)).SampledCount(); got != 0 {
		t.Errorf("fraction<0 should keep none, got %d", got)
	}
}

func TestSRSWeightReconstructsPopulation(t *testing.T) {
	s := NewRandomSortSRS(0.25, xrand.New(3))
	sample := s.SampleBatch(mkEvents("a", 1000))
	st := sample.Strata[0]
	if st.Stratum != SRSPseudoStratum {
		t.Errorf("stratum = %q", st.Stratum)
	}
	if got := st.Weight * float64(len(st.Values)); math.Abs(got-1000) > 1e-9 {
		t.Errorf("Wi*Yi = %v, want 1000", got)
	}
}

// SRS is uniform: each item should be selected with probability ~fraction.
func TestSRSUniformity(t *testing.T) {
	const n, trials = 200, 3000
	const fraction = 0.3
	counts := make([]int, n)
	rng := xrand.New(4)
	events := mkEvents("a", n)
	for trial := 0; trial < trials; trial++ {
		s := NewRandomSortSRS(fraction, rng.Split())
		for _, v := range s.SampleBatch(events).Strata[0].Values {
			counts[int(v)]++
		}
	}
	want := fraction * trials
	sd := math.Sqrt(want * (1 - fraction))
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 6*sd {
			t.Errorf("item %d selected %d times, want %.0f±%.0f", i, c, want, 3*sd)
		}
	}
}

// Property: SRS always returns exactly ceil(f*n) items for any batch.
func TestSRSSizeProperty(t *testing.T) {
	cfg := &quick.Config{MaxCount: 60}
	if err := quick.Check(func(nRaw uint16, fRaw uint8, seed uint64) bool {
		n := int(nRaw % 5000)
		f := float64(fRaw%101) / 100
		s := NewRandomSortSRS(f, xrand.New(seed))
		got := s.SampleBatch(mkEvents("a", n)).SampledCount()
		return got == int(math.Ceil(f*float64(n)))
	}, cfg); err != nil {
		t.Error(err)
	}
}

func TestSRSCanMissRareStratum(t *testing.T) {
	// Demonstrates the documented SRS failure mode: with a 10% fraction
	// and a 3-item rare stratum among 10000, the rare stratum is usually
	// under- or un-represented in at least some trials.
	rng := xrand.New(5)
	events := append(mkEvents("big", 10000), mkEvents("rare", 3)...)
	missed := 0
	for trial := 0; trial < 50; trial++ {
		s := NewRandomSortSRS(0.1, rng.Split())
		sample := s.SampleBatch(events)
		rare := 0
		for _, key := range sample.Strata[0].Keys {
			if key == "rare" {
				rare++
			}
		}
		if rare == 0 {
			missed++
		}
	}
	if missed == 0 {
		t.Error("SRS never missed the rare stratum across 50 trials; expected misses (P(miss)≈0.73)")
	}
}

func TestSTSSamplesEveryStratumProportionally(t *testing.T) {
	s := NewStratifiedSTS(0.5, 4, true, xrand.New(6))
	events := append(append(mkEvents("a", 1000), mkEvents("b", 100)...), mkEvents("c", 10)...)
	sample := s.SampleBatch(events)
	if len(sample.Strata) != 3 {
		t.Fatalf("got %d strata, want 3", len(sample.Strata))
	}
	wants := map[string]int{"a": 500, "b": 50, "c": 5}
	for _, st := range sample.Strata {
		if got := len(st.Values); got != wants[st.Stratum] {
			t.Errorf("stratum %s: sampled %d, want %d (exact mode)", st.Stratum, got, wants[st.Stratum])
		}
	}
}

func TestSTSCountsAndWeights(t *testing.T) {
	s := NewStratifiedSTS(0.1, 2, true, xrand.New(7))
	sample := s.SampleBatch(mkEvents("x", 1000))
	st := sample.Stratum("x")
	if st == nil || st.Count != 1000 {
		t.Fatalf("stratum x: %+v", st)
	}
	if got := st.Weight * float64(len(st.Values)); math.Abs(got-1000) > 1e-9 {
		t.Errorf("Wi*Yi = %v, want 1000", got)
	}
}

func TestSTSBernoulliMode(t *testing.T) {
	s := NewStratifiedSTS(0.5, 2, false, xrand.New(8))
	sample := s.SampleBatch(mkEvents("x", 10000))
	got := float64(sample.SampledCount())
	if math.Abs(got-5000) > 300 {
		t.Errorf("Bernoulli mode sampled %v items, want ~5000", got)
	}
}

func TestSTSFullFractionKeepsAll(t *testing.T) {
	s := NewStratifiedSTS(1.0, 3, true, xrand.New(9))
	sample := s.SampleBatch(mkEvents("x", 123))
	if sample.SampledCount() != 123 {
		t.Errorf("fraction 1 kept %d, want 123", sample.SampledCount())
	}
	if sample.Stratum("x").Weight != 1 {
		t.Errorf("weight = %v, want 1", sample.Stratum("x").Weight)
	}
}

func TestSTSEmptyBatch(t *testing.T) {
	s := NewStratifiedSTS(0.5, 4, true, xrand.New(10))
	sample := s.SampleBatch(nil)
	if len(sample.Strata) != 0 {
		t.Errorf("empty batch produced strata: %+v", sample.Strata)
	}
}

// Property: STS preserves all strata and never drops or duplicates counts
// through the shuffle.
func TestSTSShufflePreservesCounts(t *testing.T) {
	cfg := &quick.Config{MaxCount: 40}
	if err := quick.Check(func(sizes []uint8, workersRaw uint8, seed uint64) bool {
		if len(sizes) == 0 {
			return true
		}
		if len(sizes) > 10 {
			sizes = sizes[:10]
		}
		workers := int(workersRaw%8) + 1
		var events []stream.Event
		want := map[string]int64{}
		for si, n := range sizes {
			key := string(rune('a' + si))
			want[key] += int64(n)
			events = append(events, mkEvents(key, int(n))...)
		}
		s := NewStratifiedSTS(0.5, workers, true, xrand.New(seed))
		sample := s.SampleBatch(events)
		for _, st := range sample.Strata {
			if st.Count != want[st.Stratum] {
				return false
			}
		}
		return true
	}, cfg); err != nil {
		t.Error(err)
	}
}

// dealRoundRobin hands worker i of d the i-th of w round-robin shares of
// events, as one batch.
func dealRoundRobin(d *DistributedOASRS, events []stream.Event, w int) {
	for i, share := range stream.PartitionRoundRobin(events, w) {
		b := stream.BatchOf(share)
		d.AddBatch(i, b, 0, b.Len())
		b.Release()
	}
}

func TestDistributedOASRSMergesCounters(t *testing.T) {
	d := NewDistributedOASRS(40, 4, nil, xrand.New(11))
	dealRoundRobin(d, append(mkEvents("a", 1000), mkEvents("b", 8)...), 4)
	sample := d.Finish()
	a := sample.Stratum("a")
	if a == nil || a.Count != 1000 {
		t.Fatalf("stratum a: %+v", a)
	}
	// 4 workers x 10 per-worker budget (EqualShare with 1-2 strata varies);
	// just require sane bounds and exact reconstruction.
	if len(a.Values) == 0 || int64(len(a.Values)) > a.Count {
		t.Errorf("a sampled %d of %d", len(a.Values), a.Count)
	}
	if math.Abs(a.Weight*float64(len(a.Values))-1000) > 1e-9 {
		t.Errorf("weight does not reconstruct population: W=%v Yi=%d", a.Weight, len(a.Values))
	}
	b := sample.Stratum("b")
	if b == nil || b.Count != 8 || len(b.Values) != 8 || b.Weight != 1 {
		t.Errorf("rare stratum b mishandled: %+v", b)
	}
}

func TestDistributedOASRSConcurrentAddBatch(t *testing.T) {
	d := NewDistributedOASRS(100, 4, nil, xrand.New(12))
	done := make(chan struct{})
	for w := 0; w < 4; w++ {
		go func(w int) {
			defer func() { done <- struct{}{} }()
			b := stream.BatchOf(mkEvents("s", 5000))
			defer b.Release()
			for i := 0; i < b.Len(); i += 100 {
				d.AddBatch(w, b, i, i+100)
			}
		}(w)
	}
	for i := 0; i < 4; i++ {
		<-done
	}
	sample := d.Finish()
	if got := sample.Stratum("s").Count; got != 20000 {
		t.Errorf("concurrent adds lost items: Count=%d, want 20000", got)
	}
}

func TestDistributedOASRSWorkerClamp(t *testing.T) {
	d := NewDistributedOASRS(10, 0, nil, xrand.New(13))
	// Every index reaches the one worker, which keeps the whole budget.
	b := stream.BatchOf(mkEvents("s", 100))
	defer b.Release()
	for i := 0; i < b.Len(); i += 10 {
		d.AddBatch(i, b, i, i+10)
	}
	if s := d.Finish().Stratum("s"); s == nil || s.Count != 100 || len(s.Values) != 10 {
		t.Errorf("clamped sampler kept %+v, want 10 of 100", s)
	}
}

// The distributed sampler must agree statistically with the single-node
// sampler: equal expected per-stratum representation.
func TestDistributedOASRSStatisticalAgreement(t *testing.T) {
	rng := xrand.New(14)
	events := make([]stream.Event, 0, 4000)
	var trueSum float64
	for i := 0; i < 2000; i++ {
		v := rng.Gaussian(100, 10)
		events = append(events, stream.Event{Stratum: "a", Value: v})
		trueSum += v
		v = rng.Gaussian(10000, 100)
		events = append(events, stream.Event{Stratum: "b", Value: v})
		trueSum += v
	}
	const trials = 200
	var est float64
	for trial := 0; trial < trials; trial++ {
		d := NewDistributedOASRS(200, 4, nil, rng.Split())
		dealRoundRobin(d, events, 4)
		sample := d.Finish()
		for _, st := range sample.Strata {
			var s float64
			for _, v := range st.Values {
				s += v
			}
			est += s * st.Weight
		}
	}
	avg := est / trials
	if rel := math.Abs(avg-trueSum) / trueSum; rel > 0.01 {
		t.Errorf("distributed estimate %.0f vs true %.0f (rel %.4f)", avg, trueSum, rel)
	}
}

func BenchmarkSRSSampleBatch(b *testing.B) {
	events := mkEvents("a", 100000)
	rng := xrand.New(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		NewRandomSortSRS(0.6, rng).SampleBatch(events)
	}
}

func BenchmarkSTSSampleBatch(b *testing.B) {
	events := mkEvents("a", 100000)
	rng := xrand.New(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		NewStratifiedSTS(0.6, 4, true, rng).SampleBatch(events)
	}
}

// BenchmarkOASRSSampleBatch samples the materialized batch the SRS and
// STS benchmarks sample, as one columnar batch.
func BenchmarkOASRSSampleBatch(b *testing.B) {
	events := mkEvents("a", 100000)
	rng := xrand.New(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		feed(NewOASRS(60000, nil, rng), events)
	}
}

// The SRS sample's Keys column says which stratum each sampled value
// came from; stratified samplers leave it nil, and so does an SRS that
// sampled nothing.
func TestSRSKeysFollowValues(t *testing.T) {
	strata := []string{"a", "b", "c"}
	events := make([]stream.Event, 3000)
	for i := range events {
		events[i] = stream.Event{Stratum: strata[i%3], Value: float64(i)}
	}
	for _, fraction := range []float64{0.3, 1} {
		st := NewRandomSortSRS(fraction, xrand.New(11)).SampleBatch(events).Strata[0]
		if len(st.Keys) != len(st.Values) || len(st.Values) != int(fraction*3000) {
			t.Fatalf("fraction %v: %d keys for %d values", fraction, len(st.Keys), len(st.Values))
		}
		for i, v := range st.Values {
			if st.Keys[i] != strata[int(v)%3] {
				t.Fatalf("fraction %v: value %v keyed %q", fraction, v, st.Keys[i])
			}
		}
	}
	if st := NewRandomSortSRS(0, xrand.New(12)).SampleBatch(events).Strata[0]; st.Keys != nil || st.Count != 3000 {
		t.Errorf("empty SRS sample: keys %v, count %d", st.Keys, st.Count)
	}
	for _, st := range NewStratifiedSTS(0.3, 2, true, xrand.New(13)).SampleBatch(events).Strata {
		if st.Keys != nil {
			t.Errorf("STS stratum %s carries keys", st.Stratum)
		}
	}
}
