package estimate

import (
	"math"
	"testing"

	"streamapprox/internal/sampling"
	"streamapprox/internal/stream"
	"streamapprox/internal/xrand"
)

// shardedPopulation builds a 3-stratum population, splits it round-robin
// across n shards (disjoint sub-populations, as keyed partitions would
// be after round-robin routing), and samples each shard independently
// with OASRS. It returns the per-shard samples plus the exact sum, count
// and mean of the whole population.
func shardedPopulation(seed uint64, shards int) (samples []*sampling.Sample, sum float64, count int64, mean float64) {
	rng := xrand.New(seed)
	type stratumSpec struct {
		name string
		mu   float64
		sd   float64
	}
	specs := []stratumSpec{
		{"web", 100, 20},
		{"dns", 40, 5},
		{"p2p", 900, 150},
	}
	var events []stream.Event
	for _, sp := range specs {
		n := 200 + int(rng.Uint64()%600)
		for i := 0; i < n; i++ {
			events = append(events, stream.Event{Stratum: sp.name, Value: rng.Gaussian(sp.mu, sp.sd)})
		}
	}
	for _, e := range events {
		sum += e.Value
	}
	count = int64(len(events))
	mean = sum / float64(count)

	workers := make([]*sampling.OASRS, shards)
	perShard := len(events)/shards + 1
	for i := range workers {
		workers[i] = sampling.NewOASRS(int(0.3*float64(perShard)), nil, rng.Split())
	}
	for i, share := range stream.PartitionRoundRobin(events, shards) {
		b := stream.BatchOf(share)
		workers[i].AddBatch(b, 0, b.Len())
		b.Release()
	}
	samples = make([]*sampling.Sample, shards)
	for i, w := range workers {
		samples[i] = w.Finish()
	}
	return samples, sum, count, mean
}

// TestMergedSumBoundCoversExact is the coverage property for sharded
// execution: merging per-shard SUM estimates with MergeSums must yield
// an interval that contains the exact population sum at no less than
// (roughly) the configured 95% confidence, across many seeded
// populations.
func TestMergedSumBoundCoversExact(t *testing.T) {
	const trials = 300
	covered := 0
	for seed := uint64(1); seed <= trials; seed++ {
		samples, exact, _, _ := shardedPopulation(seed, 4)
		parts := make([]Estimate, len(samples))
		for i, s := range samples {
			parts[i] = Sum(s, Conf95)
		}
		merged := MergeSums(parts)
		if merged.Bound <= 0 {
			t.Fatalf("seed %d: merged bound not positive: %v", seed, merged)
		}
		if merged.Contains(exact) {
			covered++
		}
	}
	// 95% nominal; allow sampling slack but fail on anything that
	// suggests the bound is systematically too tight.
	if rate := float64(covered) / trials; rate < 0.90 {
		t.Errorf("merged sum bound covered exact in only %.1f%% of %d trials, want >= 90%%",
			rate*100, trials)
	}
}

// TestMergedMeanBoundCoversExact is the same property for MergeMeans,
// which weights shards by their observed item counts.
func TestMergedMeanBoundCoversExact(t *testing.T) {
	const trials = 300
	covered := 0
	for seed := uint64(1); seed <= trials; seed++ {
		samples, _, _, exact := shardedPopulation(seed, 4)
		parts := make([]Estimate, len(samples))
		counts := make([]int64, len(samples))
		for i, s := range samples {
			parts[i] = Mean(s, Conf95)
			counts[i] = s.TotalCount()
		}
		merged := MergeMeans(parts, counts)
		if merged.Contains(exact) {
			covered++
		}
	}
	if rate := float64(covered) / trials; rate < 0.90 {
		t.Errorf("merged mean bound covered exact in only %.1f%% of %d trials, want >= 90%%",
			rate*100, trials)
	}
}

// TestMergeAgreesWithSampleLevelMerge cross-checks the two merge paths:
// estimate-level merging (MergeSums/MergeMeans) must agree with
// evaluating one estimate over the concatenated per-shard samples, since
// both implement the same stratified algebra over disjoint
// sub-populations.
func TestMergeAgreesWithSampleLevelMerge(t *testing.T) {
	samples, _, _, _ := shardedPopulation(7, 4)
	union := &sampling.Sample{}
	for _, s := range samples {
		union.Strata = append(union.Strata, s.Strata...)
	}

	parts := make([]Estimate, len(samples))
	counts := make([]int64, len(samples))
	for i, s := range samples {
		parts[i] = Sum(s, Conf95)
		counts[i] = s.TotalCount()
	}
	mergedSum := MergeSums(parts)
	directSum := Sum(union, Conf95)
	if d := math.Abs(mergedSum.Value - directSum.Value); d > 1e-6 {
		t.Errorf("sum value: merged %v vs direct %v", mergedSum.Value, directSum.Value)
	}
	if d := math.Abs(mergedSum.Variance - directSum.Variance); d > 1e-6*directSum.Variance {
		t.Errorf("sum variance: merged %v vs direct %v", mergedSum.Variance, directSum.Variance)
	}

	for i, s := range samples {
		parts[i] = Mean(s, Conf95)
	}
	mergedMean := MergeMeans(parts, counts)
	directMean := Mean(union, Conf95)
	if d := math.Abs(mergedMean.Value - directMean.Value); d > 1e-9 {
		t.Errorf("mean value: merged %v vs direct %v", mergedMean.Value, directMean.Value)
	}
	if d := math.Abs(mergedMean.Variance - directMean.Variance); d > 1e-9 {
		t.Errorf("mean variance: merged %v vs direct %v", mergedMean.Variance, directMean.Variance)
	}
}

// TestFromBoundRoundTrip checks variance recovery from public bounds.
func TestFromBoundRoundTrip(t *testing.T) {
	orig := finish(42, welch{variance: 9}, Conf95)
	back := FromBound(orig.Value, orig.Bound, orig.Confidence)
	if math.Abs(back.Variance-orig.Variance) > 1e-12 {
		t.Errorf("variance round trip: %v vs %v", back.Variance, orig.Variance)
	}
	if z := FromBound(1, 3, Conf997); math.Abs(z.Variance-1) > 1e-12 {
		t.Errorf("Conf997 variance = %v, want 1", z.Variance)
	}
}

func TestMergeEdgeCases(t *testing.T) {
	if got := MergeSums(nil); got.Value != 0 || got.Bound != 0 {
		t.Errorf("empty MergeSums = %v", got)
	}
	if got := MergeMeans([]Estimate{{Value: 5, Confidence: Conf95}}, []int64{0}); got.Value != 0 {
		t.Errorf("zero-weight MergeMeans = %v", got)
	}
	got := MergeMeans(
		[]Estimate{{Value: 10, Variance: 4, Confidence: Conf95}, {Value: 20, Variance: 4, Confidence: Conf95}},
		[]int64{100, 300},
	)
	if math.Abs(got.Value-17.5) > 1e-12 {
		t.Errorf("weighted mean = %v, want 17.5", got.Value)
	}
	wantVar := 0.25*0.25*4 + 0.75*0.75*4
	if math.Abs(got.Variance-wantVar) > 1e-12 {
		t.Errorf("weighted variance = %v, want %v", got.Variance, wantVar)
	}
}
