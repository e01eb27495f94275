package server

import (
	"fmt"
	"math"
	"testing"
	"time"

	"streamapprox"
	"streamapprox/internal/estimate"
	"streamapprox/internal/xrand"
)

// parentMergeParts is the merger's mergeParts as it stood before parts
// were held by value and groups merged in one sorted pass, kept verbatim
// as the reference the current merge must match bit for bit.
func parentMergeParts(m *merger, start time.Time, parts []*streamapprox.WindowResult) MergedWindow {
	conf := internalConfidence(m.spec.confidence())
	out := MergedWindow{
		Start:      start,
		End:        start.Add(m.spec.Window),
		Confidence: conf.String(),
		Shards:     len(parts),
	}
	for _, p := range parts {
		out.Items += p.Items
		out.Sampled += p.Sampled
	}

	mean := m.spec.Kind == "mean" || m.spec.Kind == "groupby-mean"
	overall := make([]estimate.Estimate, len(parts))
	weights := make([]int64, len(parts))
	for i, p := range parts {
		overall[i] = toInternal(p.Overall, conf)
		weights[i] = p.Items
	}
	var merged estimate.Estimate
	if mean {
		merged = estimate.MergeMeans(overall, weights)
	} else {
		merged = estimate.MergeSums(overall)
	}
	out.Value, out.Error = merged.Value, merged.Bound

	// Group-by: merge per group key. Under keyed partitioning a stratum
	// lives on exactly one partition, so most keys see a single part;
	// same-key parts from several shards merge with the same algebra,
	// weighted by the per-group item counts the sessions report.
	keys := map[string]bool{}
	for _, p := range parts {
		for k := range p.Groups {
			keys[k] = true
		}
	}
	if len(keys) > 0 {
		out.Groups = make(map[string]PointEstimate, len(keys))
		for k := range keys {
			var ests []estimate.Estimate
			var counts []int64
			for _, p := range parts {
				g, ok := p.Groups[k]
				if !ok {
					continue
				}
				ests = append(ests, toInternal(g, conf))
				counts = append(counts, p.GroupItems[k])
			}
			var ge estimate.Estimate
			if mean {
				ge = estimate.MergeMeans(ests, counts)
			} else {
				ge = estimate.MergeSums(ests)
			}
			out.Groups[k] = PointEstimate{Value: ge.Value, Error: ge.Bound}
		}
	}

	// Histograms share bucket edges across shards: collect each bucket's
	// per-shard estimates and merge once, like the groups above.
	var bucketEsts [][]estimate.Estimate
	for _, p := range parts {
		if len(p.Buckets) == 0 {
			continue
		}
		if out.Buckets == nil {
			out.Buckets = make([]BucketEstimate, len(p.Buckets))
			bucketEsts = make([][]estimate.Estimate, len(p.Buckets))
			for i, b := range p.Buckets {
				out.Buckets[i] = BucketEstimate{Lo: b.Lo, Hi: b.Hi}
			}
		}
		for i, b := range p.Buckets {
			if i >= len(out.Buckets) {
				break
			}
			bucketEsts[i] = append(bucketEsts[i], toInternal(b.Count, conf))
		}
	}
	for i, ests := range bucketEsts {
		sum := estimate.MergeSums(ests)
		out.Buckets[i].Count = PointEstimate{Value: sum.Value, Error: sum.Bound}
	}
	return out
}

// randomEstimate is a part's estimate with a variance and, half the
// time, finite degrees of freedom.
func randomEstimate(rng *xrand.Rand, scale float64) streamapprox.Estimate {
	sd := rng.Float64() * scale / 10
	e := streamapprox.Estimate{Value: rng.Gaussian(scale, scale/3), Variance: sd * sd, Bound: 2 * sd}
	if rng.Bool(0.5) {
		e.DF = 1 + rng.Float64()*100
	}
	return e
}

// randomPart is one shard's window: a random subset of eight group keys
// with per-key item counts (zero or missing for some), or buckets that
// are absent or cut short on some shards.
func randomPart(rng *xrand.Rand, kind string, start time.Time) streamapprox.WindowResult {
	wr := streamapprox.WindowResult{Start: start, Overall: randomEstimate(rng, 1000), Items: int64(rng.Intn(5)) * int64(rng.Intn(400))}
	wr.Sampled = int(wr.Items / 2)
	switch kind {
	case "groupby-sum", "groupby-mean":
		wr.Groups = map[string]streamapprox.Estimate{}
		wr.GroupItems = map[string]int64{}
		for k := 0; k < 8; k++ {
			if rng.Bool(0.5) {
				continue
			}
			key := fmt.Sprintf("g%d", k)
			wr.Groups[key] = randomEstimate(rng, 100)
			if rng.Bool(0.9) {
				wr.GroupItems[key] = int64(rng.Intn(200))
			}
		}
	case "histogram":
		n := 6
		if rng.Bool(0.2) {
			n = rng.Intn(6)
		}
		for i := 0; i < n; i++ {
			wr.Buckets = append(wr.Buckets, streamapprox.HistogramBucket{Lo: float64(i), Hi: float64(i + 1), Count: randomEstimate(rng, 50)})
		}
	}
	return wr
}

// TestMergePartsMatchesParent fires seeded random windows through the
// merger, with 1–8 shards, absent shards and group keys on several
// shards, and checks every merged value and bound against the parent
// algorithm bit for bit.
func TestMergePartsMatchesParent(t *testing.T) {
	bits := func(what string, got, want float64) {
		t.Helper()
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s = %v, parent %v", what, got, want)
		}
	}
	for _, kind := range []string{"sum", "mean", "groupby-sum", "groupby-mean", "histogram"} {
		rng := xrand.New(7)
		sp := testSpec(t, kind)
		for trial := 0; trial < 400; trial++ {
			shards := 1 + trial%8
			m := newMerger(sp, shards, func() time.Time { return t0 })
			var ref []*streamapprox.WindowResult
			var fired []firedWindow
			for sh := 0; sh < shards; sh++ {
				if len(ref) > 0 && rng.Bool(0.25) {
					continue // an absent shard
				}
				wr := randomPart(rng, kind, t0)
				ref = append(ref, &wr)
				fired = append(fired, m.offer(sh, wr)...)
			}
			if len(fired) == 0 {
				fired = m.flush()
			}
			got, want := fired[0].result, parentMergeParts(m, t0, ref)
			what := fmt.Sprintf("%s trial %d (%d of %d shards)", kind, trial, len(ref), shards)
			if got.Start != want.Start || got.End != want.End || got.Confidence != want.Confidence ||
				got.Items != want.Items || got.Sampled != want.Sampled || got.Shards != want.Shards {
				t.Fatalf("%s: meta %+v, parent %+v", what, got, want)
			}
			bits(what+" value", got.Value, want.Value)
			bits(what+" error", got.Error, want.Error)
			if len(got.Groups) != len(want.Groups) || (got.Groups == nil) != (want.Groups == nil) {
				t.Fatalf("%s: groups %v, parent %v", what, got.Groups, want.Groups)
			}
			for k, w := range want.Groups {
				g, ok := got.Groups[k]
				if !ok {
					t.Fatalf("%s: group %q missing", what, k)
				}
				bits(what+" group "+k+" value", g.Value, w.Value)
				bits(what+" group "+k+" error", g.Error, w.Error)
			}
			if len(got.Buckets) != len(want.Buckets) || (got.Buckets == nil) != (want.Buckets == nil) {
				t.Fatalf("%s: buckets %v, parent %v", what, got.Buckets, want.Buckets)
			}
			for i, w := range want.Buckets {
				g := got.Buckets[i]
				bits(fmt.Sprintf("%s bucket %d lo", what, i), g.Lo, w.Lo)
				bits(fmt.Sprintf("%s bucket %d hi", what, i), g.Hi, w.Hi)
				bits(fmt.Sprintf("%s bucket %d value", what, i), g.Count.Value, w.Count.Value)
				bits(fmt.Sprintf("%s bucket %d error", what, i), g.Count.Error, w.Count.Error)
			}
		}
	}
}

// boroughs are the taxi workload's six strata.
var boroughs = []string{"manhattan", "brooklyn", "queens", "bronx", "staten-island", "ewr"}

// fanoutParts is one window of a fanout-mixed query on a 4-partition
// topic: a sum, a groupby-mean over the six boroughs (each on every
// shard) or a histogram over the taxi workload's seven edges.
func fanoutParts(kind string, start time.Time) []streamapprox.WindowResult {
	rng := xrand.New(3)
	edges := []float64{0, 1, 2, 4, 8, 16, 64}
	parts := make([]streamapprox.WindowResult, 4)
	for sh := range parts {
		wr := streamapprox.WindowResult{Start: start, Overall: randomEstimate(rng, 3000), Items: 1000, Sampled: 400}
		switch kind {
		case "groupby-mean":
			wr.Groups = map[string]streamapprox.Estimate{}
			wr.GroupItems = map[string]int64{}
			for _, b := range boroughs {
				wr.Groups[b] = randomEstimate(rng, 3)
				wr.GroupItems[b] = int64(1 + rng.Intn(300))
			}
		case "histogram":
			for i := 1; i < len(edges); i++ {
				wr.Buckets = append(wr.Buckets, streamapprox.HistogramBucket{Lo: edges[i-1], Hi: edges[i], Count: randomEstimate(rng, 150)})
			}
		}
		parts[sh] = wr
	}
	return parts
}

// BenchmarkMergeParts is the merge stage of one fanout-shaped window:
// four shards offer their parts and the last one fires the merge.
func BenchmarkMergeParts(b *testing.B) {
	for _, kind := range []string{"sum", "groupby-mean", "histogram"} {
		b.Run(kind, func(b *testing.B) {
			sp := &Spec{Kind: kind, Window: 4 * time.Second, Slide: 2 * time.Second, HistogramEdges: []float64{0, 1, 2, 4, 8, 16, 64}}
			if err := sp.normalize(); err != nil {
				b.Fatal(err)
			}
			parts := fanoutParts(kind, t0)
			m := newMerger(sp, len(parts), nil)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				start := t0.Add(time.Duration(i) * sp.Slide)
				for sh, wr := range parts {
					wr.Start = start
					m.offer(sh, wr)
				}
				delete(m.fired, start)
			}
		})
	}
}
