package server

import (
	"fmt"
	"math"
	"reflect"
	"testing"
	"time"

	"streamapprox/internal/query"
	"streamapprox/internal/sampling"
	"streamapprox/internal/stream"
	"streamapprox/internal/xrand"
)

// testdata/merged_parent.json holds, for every kind and K ∈ {1, 2, 4}, the
// windows commit 28e1c76 — the last whose shards fired windows and whose
// merger merged their results — served from fixtureStream(56, 6000) keyed
// onto K partitions by stratum, driven by driveShards and then deleted
// (window 3 s, slide 1 s, f = 0.2, seed 3 + the kind's index). At K = 4
// the fourth partition falls silent at 6 s. Each stratum lives on one
// shard, so one Combine over every shard's cells is the parent's merge of
// the shards' estimates: every window is the same, its estimates and
// bounds up to summation order.
func TestMergedWindowsMatchParent(t *testing.T) {
	want := servedFixture(t, "testdata/merged_parent.json")
	all := fixtureStream(56, 6000)
	kinds := []string{"sum", "count", "mean", "groupby-sum", "groupby-mean", "groupby-count", "histogram"}
	for _, k := range []int{1, 2, 4} {
		part := keyedBy(k)
		events := all
		if k == 4 {
			events = nil
			for _, e := range all {
				if part(e.Stratum) != 3 || e.Time.Before(all[0].Time.Add(6*time.Second)) {
					events = append(events, e)
				}
			}
		}
		for i, kind := range kinds {
			spec := Spec{Kind: kind, Window: 3 * time.Second, Slide: time.Second, Fraction: 0.2, Seed: uint64(3 + i)}
			if kind == "histogram" {
				spec.HistogramEdges = []float64{0, 40, 80, 120, 160, 200}
			}
			if err := spec.normalize(); err != nil {
				t.Fatal(err)
			}
			j, err := newJob("q", spec, fixtureServer(t, k), nil)
			if err != nil {
				t.Fatal(err)
			}
			driveShards(j, events, part, events[0].Time, events[len(events)-1].Time.Add(time.Millisecond))
			j.stop(true)
			label := fmt.Sprintf("%s/%d", kind, k)
			if len(want[label]) == 0 {
				t.Fatalf("%s: no fixture windows", label)
			}
			sameWindows(t, label, j.resultsSince(-1), want[label])
		}
	}
}

// sameWindows checks got against want field by field: estimates and
// bounds to 1e-12 relative, everything else exactly.
func sameWindows(t *testing.T, label string, got, want []MergedWindow) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d windows, want %d", label, len(got), len(want))
	}
	near := func(a, b float64) bool { return math.Abs(a-b) <= 1e-12*math.Max(math.Abs(a), math.Abs(b)) }
	for i := range got {
		g, w := got[i], want[i]
		ok := near(g.Value, w.Value) && near(g.Error, w.Error) && len(g.Groups) == len(w.Groups) && len(g.Buckets) == len(w.Buckets)
		for k, gg := range g.Groups {
			wg, in := w.Groups[k]
			ok = ok && in && near(gg.Value, wg.Value) && near(gg.Error, wg.Error)
		}
		for b := range g.Buckets {
			gb, wb := g.Buckets[b], w.Buckets[b]
			ok = ok && gb.Lo == wb.Lo && gb.Hi == wb.Hi && near(gb.Count.Value, wb.Count.Value) && near(gb.Count.Error, wb.Count.Error)
		}
		g.Value, g.Error, g.Groups, g.Buckets = w.Value, w.Error, w.Groups, w.Buckets
		if !ok || !reflect.DeepEqual(g, w) {
			t.Errorf("%s: window %d is\n%+v\nwant\n%+v", label, i, got[i], want[i])
		}
	}
}

// TestCrossShardStratumPoolsItsBound: a stratum whose records reach two
// partitions, sampled once of two on each in every slide after the first,
// gets a bound pooled over both shards' samples, as one session sampling
// both cells would. A shard alone has one sampled value of the stratum, so
// merging the shards' own estimates served these windows at ±0.
func TestCrossShardStratumPoolsItsBound(t *testing.T) {
	spec := Spec{Kind: "sum", Window: time.Second, Slide: time.Second, Fraction: 0.5}
	if err := spec.normalize(); err != nil {
		t.Fatal(err)
	}
	j, err := newJob("q", spec, fixtureServer(t, 2), nil)
	if err != nil {
		t.Fatal(err)
	}
	base := time.Date(2017, 12, 11, 0, 0, 0, 0, time.UTC)
	for sec := range 6 {
		for _, sh := range j.shards {
			b := stream.GetEventBatch()
			for i := range 2 {
				at := base.Add(time.Duration(sec)*time.Second + time.Duration(100*i+10*sh.idx)*time.Millisecond)
				b.AppendEvent(stream.Event{Stratum: "x", Value: float64(10*sh.idx + 3*i + sec), Time: at})
			}
			push(sh, b, time.Time{})
			b.Release()
		}
	}
	j.stop(true)
	got := j.resultsSince(-1)
	if len(got) != 6 {
		t.Fatalf("%d windows, want 6", len(got))
	}
	for _, w := range got[1:] {
		if w.Items != 4 || w.Sampled != 2 || w.Shards != 2 {
			t.Fatalf("window %v: items %d sampled %d shards %d, want 4, 2, 2", w.Start, w.Items, w.Sampled, w.Shards)
		}
		if !(w.Error > 0) {
			t.Errorf("window %v: %v ± %v, want a pooled, non-zero bound", w.Start, w.Value, w.Error)
		}
	}
}

// boroughs are the strata of the fanout-shaped panes.
var boroughs = []string{"manhattan", "brooklyn", "queens", "bronx", "staten", "ewr"}

// fanoutPanes is one slide of a fanout-shaped stream summarised through
// q: six boroughs of unequal rates keyed over k shards, one summary per
// shard.
func fanoutPanes(q query.Query, k int) []query.Summary {
	rng := xrand.New(1)
	samples := make([]sampling.Sample, k)
	for s, n := range []int64{4000, 2500, 1800, 900, 60, 10} {
		vals := make([]float64, max(n/10, 1))
		for i := range vals {
			vals[i] = rng.Gaussian(3, 2)
		}
		samples[s%k].Strata = append(samples[s%k].Strata, sampling.StratumSample{
			Stratum: boroughs[s], Values: vals, Count: n, Weight: float64(n) / float64(len(vals))})
	}
	sums := make([]query.Summary, k)
	for i := range samples {
		sums[i] = q.Summarize(&samples[i])
	}
	return sums
}

// BenchmarkMergedWindow is the merger's cost per served window: each
// iteration hands it one slide's fanout-shaped panes from every shard and
// moves every shard's watermark past the slide, which fires one 5 s window
// sliding by 1 s.
func BenchmarkMergedWindow(b *testing.B) {
	for _, kind := range []string{"sum", "mean", "groupby-mean", "histogram"} {
		for _, k := range []int{1, 4} {
			sp := Spec{Kind: kind, Window: 5 * time.Second, Slide: time.Second,
				HistogramEdges: []float64{0, 1, 2, 4, 8, 16, 64}}
			if err := sp.normalize(); err != nil {
				b.Fatal(err)
			}
			sums := fanoutPanes(sp.combiner(), k)
			b.Run(fmt.Sprintf("%s/K=%d", kind, k), func(b *testing.B) {
				m := newMerger(&sp, k)
				start := t0
				b.ReportAllocs()
				for b.Loop() {
					for shard, sum := range sums {
						m.add(shard, query.Pane{Start: start, Summary: sum})
					}
					start = start.Add(sp.Slide)
					for shard := range k {
						m.advance(shard, start)
					}
				}
			})
		}
	}
}
