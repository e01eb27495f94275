package server

import (
	"fmt"
	"math"
	"testing"
	"time"

	"streamapprox/internal/broker"
	"streamapprox/internal/stream"
)

// servedEdges are the histogram edges the served scale relation is
// checked on, before scaling: fixtureStream's strata lie between 20 and
// 170.
var servedEdges = []float64{0, 30, 60, 90, 120, 150, 200}

// servedScaled serves one query of kind over a pre-loaded 4-partition
// log holding events with every value multiplied by f, its histogram
// edges multiplied by f too, and returns every window it served once the
// log was consumed and the query deregistered, which flushes the rest.
func servedScaled(t *testing.T, kind string, f float64, events []stream.Event) []MergedWindow {
	t.Helper()
	bk := broker.New()
	defer bk.Close()
	if err := bk.CreateTopic("in", 4); err != nil {
		t.Fatal(err)
	}
	up := make([]stream.Event, len(events))
	for i, e := range events {
		e.Value *= f
		up[i] = e
	}
	if _, err := produceEvents(bk, "in", up); err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Cluster: bk, Topic: "in", PollBackoff: time.Millisecond, CheckpointEvery: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	spec := Spec{Kind: kind, Window: 4 * time.Second, Slide: 2 * time.Second, Fraction: 0.3, Seed: 7}
	if kind == "histogram" {
		for _, e := range servedEdges {
			spec.HistogramEdges = append(spec.HistogramEdges, e*f)
		}
	}
	id, err := s.Register(spec)
	if err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		if records, _, _ := s.Stats(id); records == int64(len(events)) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s ·%v: the log was not consumed", kind, f)
		}
	}
	j, _ := s.job(id)
	if err := s.Deregister(id); err != nil {
		t.Fatal(err)
	}
	return j.resultsSince(-1)
}

// TestServedWindowsScaleByPowersOfTwo is ROADMAP item 21's scale relation
// on the served path: one query of each kind over a pre-loaded log, with
// every value and histogram edge multiplied by 2^k, serves every SUM and
// MEAN value and bound multiplied by exactly 2^k, bit for bit, and every
// COUNT estimate, bucket count, Items and Sampled unchanged. The plane's
// sample depends on the records' arrival, never on their values, and a
// power of two moves only exponents.
func TestServedWindowsScaleByPowersOfTwo(t *testing.T) {
	events := fixtureStream(13, 20000)
	for _, kind := range KindNames() {
		want := servedScaled(t, kind, 1, events)
		if len(want) < 10 {
			t.Fatalf("%s: %d windows served", kind, len(want))
		}
		values := kind == "sum" || kind == "mean" || kind == "groupby-sum" || kind == "groupby-mean"
		for _, k := range []int{3, -2} {
			f := math.Ldexp(1, k)
			label := fmt.Sprintf("%s k=%d", kind, k)
			got := servedScaled(t, kind, f, events)
			if len(got) != len(want) {
				t.Fatalf("%s: %d windows, want %d", label, len(got), len(want))
			}
			scale := 1.0
			if values {
				scale = f
			}
			same := func(what string, i int, g, w PointEstimate) {
				if !sameBits(g.Value, w.Value*scale) || !sameBits(g.Error, w.Error*scale) {
					t.Errorf("%s: window %d %s %v ± %v, want (%v ± %v)·%v", label, i, what, g.Value, g.Error, w.Value, w.Error, scale)
				}
			}
			for i, g := range got {
				w := want[i]
				if !g.Start.Equal(w.Start) || !g.End.Equal(w.End) || g.Items != w.Items || g.Sampled != w.Sampled {
					t.Fatalf("%s: window %d is [%v, %v) items %d sampled %d, want [%v, %v) items %d sampled %d",
						label, i, g.Start, g.End, g.Items, g.Sampled, w.Start, w.End, w.Items, w.Sampled)
				}
				same("overall", i, PointEstimate{Value: g.Value, Error: g.Error}, PointEstimate{Value: w.Value, Error: w.Error})
				if len(g.Groups) != len(w.Groups) {
					t.Errorf("%s: window %d groups %v, want %v", label, i, g.Groups, w.Groups)
				}
				for key, wg := range w.Groups {
					same("group "+key, i, g.Groups[key], wg)
				}
				if len(g.Buckets) != len(w.Buckets) {
					t.Fatalf("%s: window %d has %d buckets, want %d", label, i, len(g.Buckets), len(w.Buckets))
				}
				for b, wb := range w.Buckets {
					gb := g.Buckets[b]
					if gb.Lo != wb.Lo*f || gb.Hi != wb.Hi*f || !sameBits(gb.Count.Value, wb.Count.Value) || !sameBits(gb.Count.Error, wb.Count.Error) {
						t.Errorf("%s: window %d bucket %d %+v, want %+v with edges ·%v", label, i, b, gb, wb, f)
					}
				}
			}
		}
	}
}

// sameBits reports whether a and b are the same float64, bit for bit, or
// both NaN.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || math.IsNaN(a) && math.IsNaN(b)
}
