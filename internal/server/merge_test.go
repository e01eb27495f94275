package server

import (
	"math"
	"testing"
	"time"

	"streamapprox"
	"streamapprox/internal/estimate"
)

func testSpec(t *testing.T, kind string) *Spec {
	t.Helper()
	sp := &Spec{Kind: kind, Window: 4 * time.Second, Slide: 2 * time.Second}
	if kind == "histogram" {
		sp.HistogramEdges = []float64{0, 10, 20}
	}
	if err := sp.normalize(); err != nil {
		t.Fatal(err)
	}
	return sp
}

var t0 = time.Date(2017, 12, 11, 0, 0, 0, 0, time.UTC)

// normal is a part's estimate in the normal limit (DF 0): its variance
// is (bound/2)² at 95 %.
func normal(value, bound float64) streamapprox.Estimate {
	return streamapprox.Estimate{Value: value, Bound: bound, Confidence: streamapprox.Confidence95, Variance: bound * bound / 4}
}

func TestMergePartsSum(t *testing.T) {
	sp := testSpec(t, "sum")
	m := newMerger(sp, 2, nil)
	// Two shards: values 100±4 and 50±3 at 95% (z=2) → variances 4 and
	// 2.25, merged 150 ± 2·√6.25 = 150 ± 5.
	fw := m.offer(0, streamapprox.WindowResult{
		Start: t0, End: t0.Add(sp.Window),
		Overall: normal(100, 4),
		Items:   80, Sampled: 40,
	})
	if fw != nil {
		t.Fatal("fired before all shards reported")
	}
	fired := m.offer(1, streamapprox.WindowResult{
		Start: t0, End: t0.Add(sp.Window),
		Overall: normal(50, 3),
		Items:   40, Sampled: 20,
	})
	if len(fired) != 1 {
		t.Fatalf("fired %d windows, want 1", len(fired))
	}
	got := fired[0].result
	if got.Value != 150 || math.Abs(got.Error-5) > 1e-12 {
		t.Errorf("merged = %v ± %v, want 150 ± 5", got.Value, got.Error)
	}
	if got.Items != 120 || got.Sampled != 60 || got.Shards != 2 {
		t.Errorf("merged meta = %+v", got)
	}
	// A straggler for the fired window is dropped.
	if again := m.offer(0, streamapprox.WindowResult{Start: t0}); again != nil {
		t.Error("straggler re-fired a merged window")
	}
}

func TestMergePartsMeanWeightsByItems(t *testing.T) {
	sp := testSpec(t, "mean")
	m := newMerger(sp, 2, nil)
	m.offer(0, streamapprox.WindowResult{
		Start:   t0,
		Overall: normal(10, 2),
		Items:   100,
	})
	fired := m.offer(1, streamapprox.WindowResult{
		Start:   t0,
		Overall: normal(20, 2),
		Items:   300,
	})
	if len(fired) != 1 {
		t.Fatalf("fired %d windows", len(fired))
	}
	got := fired[0].result
	if math.Abs(got.Value-17.5) > 1e-12 {
		t.Errorf("merged mean = %v, want 17.5", got.Value)
	}
	// var = (0.25·1)² ... each part variance (2/2)²=1; ω²: 0.0625+0.5625
	wantErr := 2 * math.Sqrt(0.0625+0.5625)
	if math.Abs(got.Error-wantErr) > 1e-12 {
		t.Errorf("merged error = %v, want %v", got.Error, wantErr)
	}
}

func TestMergePartsGroupsAndBuckets(t *testing.T) {
	sp := testSpec(t, "groupby-sum")
	m := newMerger(sp, 2, nil)
	m.offer(0, streamapprox.WindowResult{
		Start:      t0,
		Groups:     map[string]streamapprox.Estimate{"tcp": normal(7, 2)},
		GroupItems: map[string]int64{"tcp": 10},
	})
	fired := m.offer(1, streamapprox.WindowResult{
		Start:      t0,
		Groups:     map[string]streamapprox.Estimate{"tcp": normal(3, 2), "udp": normal(5, 1)},
		GroupItems: map[string]int64{"tcp": 4, "udp": 6},
	})
	if len(fired) != 1 {
		t.Fatalf("fired %d windows", len(fired))
	}
	groups := fired[0].result.Groups
	if len(groups) != 2 {
		t.Fatalf("groups = %v", groups)
	}
	if g := groups["tcp"]; g.Value != 10 || math.Abs(g.Error-2*math.Sqrt(2)) > 1e-12 {
		t.Errorf("tcp = %+v", g)
	}
	if g := groups["udp"]; g.Value != 5 || g.Error != 1 {
		t.Errorf("udp = %+v", g)
	}

	hsp := testSpec(t, "histogram")
	hm := newMerger(hsp, 2, nil)
	hm.offer(0, streamapprox.WindowResult{
		Start: t0,
		Buckets: []streamapprox.HistogramBucket{
			{Lo: 0, Hi: 10, Count: normal(4, 2)},
			{Lo: 10, Hi: 20, Count: normal(1, 0)},
		},
	})
	hfired := hm.offer(1, streamapprox.WindowResult{
		Start: t0,
		Buckets: []streamapprox.HistogramBucket{
			{Lo: 0, Hi: 10, Count: normal(6, 2)},
			{Lo: 10, Hi: 20, Count: normal(2, 0)},
		},
	})
	if len(hfired) != 1 {
		t.Fatalf("histogram fired %d windows", len(hfired))
	}
	buckets := hfired[0].result.Buckets
	if len(buckets) != 2 {
		t.Fatalf("buckets = %+v", buckets)
	}
	if buckets[0].Count.Value != 10 || math.Abs(buckets[0].Count.Error-2*math.Sqrt(2)) > 1e-12 {
		t.Errorf("bucket 0 = %+v", buckets[0])
	}
	if buckets[1].Count.Value != 3 || buckets[1].Count.Error != 0 {
		t.Errorf("bucket 1 = %+v", buckets[1])
	}
}

// TestMergePartsCarryVarianceAndDF: parts merge on the variance and
// degrees of freedom they carry, never on their bounds. A one-item shard
// whose t bound is seven times its σ must not inflate a window dominated
// by a large shard, as inverting every bound with z = 2 did.
func TestMergePartsCarryVarianceAndDF(t *testing.T) {
	sp := testSpec(t, "sum")
	m := newMerger(sp, 2, nil)
	small := streamapprox.Estimate{Value: 10, Variance: 1, DF: 1, Bound: 13.97, Confidence: streamapprox.Confidence95}
	large := normal(1000, 20)
	m.offer(0, streamapprox.WindowResult{Start: t0, Overall: small, Items: 10})
	fired := m.offer(1, streamapprox.WindowResult{Start: t0, Overall: large, Items: 10000})
	if len(fired) != 1 {
		t.Fatalf("fired %d windows", len(fired))
	}
	got := fired[0].result
	want := estimate.MergeSums([]estimate.Estimate{
		{Value: 10, Variance: 1, DF: 1, Confidence: estimate.Conf95},
		{Value: 1000, Variance: 100, Confidence: estimate.Conf95},
	})
	if got.Value != 1010 || got.Error != want.Bound {
		t.Errorf("merged %v ± %v, want 1010 ± %v", got.Value, got.Error, want.Bound)
	}
	// Variance 101 on ≈ 10⁴ degrees of freedom: 2·√101 to 0.05 %; the
	// bound-inverting merge served 2·√(100 + (13.97/2)²) ≈ 24.4.
	if z := 2 * math.Sqrt(101); got.Error < z || got.Error > z*1.0005 {
		t.Errorf("merged bound %v, want 2·√101 = %v", got.Error, z)
	}
}

// TestMergerWatermarkFiresPartialWindows covers the idle-partition path:
// a window only one shard contributed to fires once every shard's
// watermark passes its end by a slide.
func TestMergerWatermarkFiresPartialWindows(t *testing.T) {
	sp := testSpec(t, "sum")
	m := newMerger(sp, 3, nil)
	if fired := m.offer(0, streamapprox.WindowResult{
		Start:   t0,
		Overall: streamapprox.Estimate{Value: 9, Bound: 1},
		Items:   10,
	}); fired != nil {
		t.Fatal("premature fire")
	}
	// Two shards advance; min watermark still zero → nothing fires.
	if fired := m.advance(0, t0.Add(10*time.Second)); fired != nil {
		t.Fatal("fired with a silent shard")
	}
	if fired := m.advance(1, t0.Add(10*time.Second)); fired != nil {
		t.Fatal("fired with a silent shard")
	}
	// Third shard catches up past end+slide → the partial window fires.
	fired := m.advance(2, t0.Add(6*time.Second))
	if len(fired) != 1 {
		t.Fatalf("fired %d windows, want 1", len(fired))
	}
	if got := fired[0].result; got.Value != 9 || got.Shards != 1 {
		t.Errorf("partial merge = %+v", got)
	}
}

func TestSpecNormalizeAndJSON(t *testing.T) {
	var sp Spec
	if err := sp.UnmarshalJSON([]byte(`{"kind":"mean","window":"30s","slide":"10s","fraction":0.4}`)); err != nil {
		t.Fatal(err)
	}
	if err := sp.normalize(); err != nil {
		t.Fatal(err)
	}
	if sp.Window != 30*time.Second || sp.Slide != 10*time.Second || sp.Confidence != 95 {
		t.Errorf("normalized = %+v", sp)
	}
	data, err := sp.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	var back Spec
	if err := back.UnmarshalJSON(data); err != nil {
		t.Fatal(err)
	}
	if back.Window != sp.Window || back.Slide != sp.Slide || back.Kind != sp.Kind || back.Fraction != sp.Fraction {
		t.Errorf("round trip = %+v", back)
	}

	for _, bad := range []string{
		`{"kind":"median"}`,
		`{"kind":"sum","window":"1s","slide":"2s"}`,
		`{"kind":"sum","fraction":1.5}`,
		`{"kind":"sum","confidence":50}`,
		`{"kind":"histogram"}`,
		`{"kind":"sum","from":"yesterday"}`,
	} {
		var sp Spec
		if err := sp.UnmarshalJSON([]byte(bad)); err != nil {
			continue
		}
		if err := sp.normalize(); err == nil {
			t.Errorf("spec %s passed validation", bad)
		}
	}
}
