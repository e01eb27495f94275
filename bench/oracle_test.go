package main

import (
	"math"
	"strings"
	"testing"
	"time"

	"streamapprox/internal/broker"
	"streamapprox/internal/server"
)

// naiveTruth is the O(events) scan the oracle replaces.
func naiveTruth(o *oracle, recs []broker.Record, start, end int64) truth {
	t := newTruth(len(o.src.dict), len(o.cycle.hist))
	for _, r := range recs {
		if at := r.Time.UnixNano(); at < start || at >= end {
			continue
		}
		t.count++
		t.sum += r.Value
		t.gcnt[o.ids[r.Key]]++
		t.gsum[o.ids[r.Key]] += r.Value
		if b := o.bucketOf(r.Value); b >= 0 {
			t.hist[b]++
		}
	}
	return t
}

func sameTruth(a, b truth) bool {
	near := func(x, y float64) bool { return math.Abs(x-y) <= 1e-6*math.Max(1, math.Abs(y)) }
	if a.count != b.count || !near(a.sum, b.sum) {
		return false
	}
	for i := range a.gcnt {
		if a.gcnt[i] != b.gcnt[i] || !near(a.gsum[i], b.gsum[i]) {
			return false
		}
	}
	for i := range a.hist {
		if a.hist[i] != b.hist[i] {
			return false
		}
	}
	return true
}

// TestOracleMatchesNaiveScan cross-checks the prefix-sum oracle against
// the linear scan on small seeded inputs, over more than one pool cycle,
// including the pair-swapped fanout-mixed stream as the producer emits it.
func TestOracleMatchesNaiveScan(t *testing.T) {
	cases := []struct {
		name          string
		src           *source
		edges         []float64
		batch         int
		swap          bool
		window, slide time.Duration
	}{
		{"skew", skewSourceForTest(3), nil, 4096, false, 400 * time.Millisecond, 200 * time.Millisecond},
		{"uniform", uniformSource(5, 3000, 3*time.Second, 500), gaussEdges, 500, false, 2 * time.Second, time.Second},
		{"taxi-swapped", evenTaxi(7, 4000, 2*time.Second), taxiEdges, 1000, true, time.Second, 250 * time.Millisecond},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			o := newOracle(c.src, c.edges)
			gen := newRecordGen(c.src, c.batch, c.swap, 4)
			var recs []broker.Record
			produced := 5*c.src.len()/2 + 17 // two and a half cycles, not a batch multiple
			for int64(len(recs)) < produced {
				recs = append(recs, gen.nextBatch()...)
			}
			total := int64(len(recs))
			first := c.src.timeOf(0)
			lastFull := c.src.timeOf(total-1) - int64(c.window)
			windows := 0
			for start := first - int64(c.window) + int64(c.slide); start <= lastFull; start += int64(c.slide) {
				want := naiveTruth(o, recs, start, start+int64(c.window))
				got := o.window(start, start+int64(c.window))
				if !sameTruth(got, want) {
					t.Fatalf("window [%d, +%v): oracle %+v, scan %+v", start-first, c.window, got, want)
				}
				windows++
			}
			if windows < 5 {
				t.Fatalf("only %d windows compared", windows)
			}
			if got := o.upTo(total); got.count != total {
				t.Fatalf("upTo(%d).count = %d", total, got.count)
			}
		})
	}
}

func evenTaxi(seed uint64, n int, span time.Duration) *source {
	src := taxiSource(seed, n, span)
	src.evenPartitions(1000, 4)
	return src
}

// skewSourceForTest is the lib-skew source cut down to one second.
func skewSourceForTest(seed uint64) *source { return skewSource(seed, 1) }

// TestSwappedStreamIsPairAligned pins the property the fanout-mixed
// input relies on: every batch carries an even number of records per
// partition, pairwise exchanged, so no even-sized fetch splits a pair.
func TestSwappedStreamIsPairAligned(t *testing.T) {
	src := evenTaxi(11, 5000, 5*time.Second)
	gen := newRecordGen(src, 1000, true, 4)
	outOfOrder := 0
	for k := 0; k < 12; k++ {
		perPart := make(map[int][]broker.Record)
		for _, r := range gen.nextBatch() {
			p := partitionOf(r.Key, 4)
			perPart[p] = append(perPart[p], r)
		}
		for p, recs := range perPart {
			if len(recs)%2 != 0 {
				t.Fatalf("batch %d partition %d: %d records", k, p, len(recs))
			}
			for i := 0; i+1 < len(recs); i += 2 {
				if recs[i].Time.Before(recs[i+1].Time) {
					t.Fatalf("batch %d partition %d: pair %d not exchanged", k, p, i/2)
				}
				if recs[i+1].Time.Before(recs[i].Time) {
					outOfOrder++
				}
				if i+2 < len(recs) && recs[i+2].Time.Before(recs[i].Time) {
					t.Fatalf("batch %d partition %d: disorder reaches past the pair at %d", k, p, i)
				}
			}
		}
	}
	if outOfOrder == 0 {
		t.Fatal("no pair is out of event-time order: the sort would have nothing to do")
	}
}

// TestScoreNamesTheOffendingWindow checks that a wrong item count fails
// the window and that the report names the query and the window.
func TestScoreNamesTheOffendingWindow(t *testing.T) {
	src := uniformSource(5, 3000, 3*time.Second, 500)
	o := newOracle(src, nil)
	start := time.Unix(0, src.timeOf(0)).UTC()
	exact := o.window(start.UnixNano(), start.Add(time.Second).UnixNano())
	w := server.MergedWindow{Query: "q-7", Seq: 3, Start: start, End: start.Add(time.Second),
		Items: exact.count, Value: exact.sum, Error: 0}
	if sc := o.score("sum", &w); !sc.itemsOK || sc.covered != 1 || sc.relErr != 0 {
		t.Fatalf("exact window scored %+v", sc)
	}
	w.Items--
	sc := o.score("sum", &w)
	if sc.itemsOK || !strings.Contains(sc.describe, "q-7") || !strings.Contains(sc.describe, "seq 3") {
		t.Fatalf("short window scored %+v", sc)
	}
	w.Items++
	w.Value = exact.sum * 1.5
	if sc := o.score("sum", &w); sc.covered != 0 || math.Abs(sc.relErr-0.5) > 1e-9 {
		t.Fatalf("wrong estimate scored %+v", sc)
	}
}
