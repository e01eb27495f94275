package server

import (
	"math"
	"runtime"
	"testing"
	"time"

	"streamapprox"
	"streamapprox/internal/adaptive"
	"streamapprox/internal/estimate"
	"streamapprox/internal/query"
	"streamapprox/internal/stream"
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

// cell is one stratum's pane entry: count items, of which values were
// sampled.
func cell(stratum string, count int64, values ...float64) query.StratumSummary {
	return query.StratumSummary{Stratum: stratum,
		Moments: estimate.MomentsOf(count, float64(count)/float64(len(values)), values)}
}

// strata is a summary of the given cells.
func strata(cells ...query.StratumSummary) query.Summary {
	return query.Summary{Strata: cells}
}

// combined is the spec's Combine of sums, into a Result of its own.
func combined(sp *Spec, sums ...query.Summary) query.Result {
	var res query.Result
	sp.combiner().Combine(sums, &res)
	return res
}

// handAll hands the merger one pane at start per shard, shard i's the
// i-th summary, then moves every shard's watermark to mark, and returns
// the windows that fired.
func handAll(t testing.TB, m *merger, start, mark time.Time, sums ...query.Summary) []MergedWindow {
	t.Helper()
	for i, sum := range sums {
		if !m.add(i, query.Pane{Start: start, Summary: sum}) {
			t.Fatalf("shard %d: pane at %v refused", i, start)
		}
	}
	var out []MergedWindow
	for i := range m.marks {
		for _, fw := range m.advance(i, mark) {
			out = append(out, fw.result)
		}
	}
	return out
}

// TestMergePartsSum: a window's estimate is one Combine over every
// shard's cells, counted over the shards with a pane in it, and it fires
// once the lowest shard watermark reaches its end; a pane arriving after
// every shard has passed its slide is dropped.
func TestMergePartsSum(t *testing.T) {
	sp := testSpec(t, "sum")
	m := newMerger(sp, 2)
	a, b := strata(cell("a", 80, 1, 2, 3, 4)), strata(cell("b", 40, 10, 20))
	if fired := handAll(t, m, t0, t0.Add(sp.Slide), a, b); len(fired) != 1 || !fired[0].Start.Equal(t0.Add(-sp.Slide)) {
		t.Fatalf("fired %+v, want the window ending with the first slide", fired)
	}
	m.add(0, query.Pane{Start: t0.Add(sp.Slide), Summary: a})
	if fired := m.advance(0, t0.Add(sp.Window)); fired != nil {
		t.Fatalf("fired %+v before shard 1 reached the window's end", fired)
	}
	fired := m.advance(1, t0.Add(sp.Window))
	if len(fired) != 1 {
		t.Fatalf("fired %d windows, want 1", len(fired))
	}
	got := fired[0].result
	want := combined(sp, a, b, a).Overall
	if got.Value != want.Value || got.Error != want.Bound || got.Value != 2*200+600 {
		t.Errorf("merged = %v ± %v, want %v ± %v", got.Value, got.Error, want.Value, want.Bound)
	}
	if got.Items != 200 || got.Sampled != 10 || got.Shards != 2 {
		t.Errorf("merged meta = %+v", got)
	}
	if m.add(1, query.Pane{Start: t0, Summary: b}) {
		t.Error("a pane of a complete slide was filed")
	}
}

// TestMergePartsMeanWeightsByItems: a merged mean weights every cell by
// its item count, whichever shard it came from.
func TestMergePartsMeanWeightsByItems(t *testing.T) {
	sp := testSpec(t, "mean")
	m := newMerger(sp, 2)
	fired := handAll(t, m, t0, t0.Add(sp.Slide), strata(cell("a", 100, 9, 11)), strata(cell("b", 300, 19, 21)))
	if len(fired) != 1 {
		t.Fatalf("fired %d windows", len(fired))
	}
	if got := fired[0].Value; math.Abs(got-17.5) > 1e-12 {
		t.Errorf("merged mean = %v, want 17.5", got)
	}
}

// TestMergePartsGroupsAndBuckets: a group's estimate is over its cells on
// every shard, and a bucket's count over every shard's hits.
func TestMergePartsGroupsAndBuckets(t *testing.T) {
	sp := testSpec(t, "groupby-sum")
	m := newMerger(sp, 2)
	tcp0, tcp1, udp := cell("tcp", 10, 1, 2), cell("tcp", 4, 3, 4), cell("udp", 6, 5, 6)
	fired := handAll(t, m, t0, t0.Add(sp.Slide), strata(tcp0), strata(tcp1, udp))
	if len(fired) != 1 {
		t.Fatalf("fired %d windows", len(fired))
	}
	want := combined(sp, strata(tcp0, tcp1, udp))
	groups := fired[0].Groups
	if len(groups) != 2 || groups["tcp"].Value != 5*3+2*7 {
		t.Fatalf("groups = %v, want tcp at 29 and udp", groups)
	}
	for k, g := range groups {
		if w := want.Groups[k]; g.Value != w.Value || g.Error != w.Bound {
			t.Errorf("%s = %+v, want %v ± %v", k, g, w.Value, w.Bound)
		}
	}

	hsp := testSpec(t, "histogram")
	hm := newMerger(hsp, 2)
	hits := func(h ...int32) query.Summary {
		return query.Summary{Strata: []query.StratumSummary{cell("s", 4, 1, 2, 3, 4)}, Hits: h}
	}
	hfired := handAll(t, hm, t0, t0.Add(hsp.Slide), hits(3, 1), hits(2, 2))
	if len(hfired) != 1 {
		t.Fatalf("histogram fired %d windows", len(hfired))
	}
	if b := hfired[0].Buckets; len(b) != 2 || b[0].Count.Value != 5 || b[1].Count.Value != 3 {
		t.Errorf("buckets = %+v, want counts 5 and 3", b)
	}
}

// TestMergePartsCarryVarianceAndDF: one stratum sampled once on each of
// two shards pools its variance over both, as one session sampling both
// cells would. Each shard's cell alone can only report ±0.
func TestMergePartsCarryVarianceAndDF(t *testing.T) {
	sp := testSpec(t, "sum")
	m := newMerger(sp, 2)
	x0, x1 := cell("x", 10, 3), cell("x", 10, 7)
	fired := handAll(t, m, t0, t0.Add(sp.Slide), strata(x0), strata(x1))
	if len(fired) != 1 {
		t.Fatalf("fired %d windows", len(fired))
	}
	want := combined(sp, strata(x0, x1)).Overall
	if got := fired[0]; got.Value != 100 || got.Error != want.Bound || want.Bound == 0 || want.DF != 1 {
		t.Errorf("merged %v ± %v, want 100 ± %v on 1 df", got.Value, got.Error, want.Bound)
	}
	for _, own := range []query.StratumSummary{x0, x1} {
		if b := combined(sp, strata(own)).Overall.Bound; b != 0 {
			t.Errorf("one shard's cell alone has bound %v, want 0", b)
		}
	}
}

// TestMergerWatermarkFiresPartialWindows covers the idle-partition path:
// a window only one shard has panes in fires once every shard's
// watermark reaches its end, counting one shard.
func TestMergerWatermarkFiresPartialWindows(t *testing.T) {
	sp := testSpec(t, "sum")
	m := newMerger(sp, 3)
	if !m.add(0, query.Pane{Start: t0, Summary: strata(cell("a", 10, 9))}) {
		t.Fatal("pane refused")
	}
	// Two shards advance; the lowest watermark is still zero.
	if fired := m.advance(0, t0.Add(10*time.Second)); fired != nil {
		t.Fatal("fired with a silent shard")
	}
	if fired := m.advance(1, t0.Add(10*time.Second)); fired != nil {
		t.Fatal("fired with a silent shard")
	}
	// The third reaches the end of the window starting at t0: both
	// windows covering the pane fire.
	fired := m.advance(2, t0.Add(sp.Window))
	if len(fired) != 2 {
		t.Fatalf("fired %d windows, want 2", len(fired))
	}
	if got := fired[1].result; got.Value != 90 || got.Shards != 1 || !got.Start.Equal(t0) {
		t.Errorf("partial merge = %+v", got)
	}
}

// TestMergerHoldsOnlySlidesWithPanes: the merger keeps the slides that
// hold a pane, not every slide between its oldest and newest, so a shard
// a year ahead of a lagging one costs two slides, not a year of them,
// and a deleted query still serves each of its windows once.
func TestMergerHoldsOnlySlidesWithPanes(t *testing.T) {
	spec := Spec{Kind: "sum", Window: 2 * time.Second, Slide: time.Second, Fraction: 1}
	if err := spec.normalize(); err != nil {
		t.Fatal(err)
	}
	j, err := newJob("q", spec, fixtureServer(t, 2), nil)
	if err != nil {
		t.Fatal(err)
	}
	feed := func(sh *shard, at time.Time) {
		b := stream.GetEventBatch()
		b.AppendEvent(stream.Event{Stratum: "a", Value: 1, Time: at})
		push(sh, b, time.Time{})
		b.Release()
	}
	ahead := t0.AddDate(1, 0, 0)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	feed(j.shards[1], t0) // shard 1 lags at t0 from here on
	feed(j.shards[0], t0)
	feed(j.shards[0], ahead)
	feed(j.shards[0], ahead.Add(spec.Slide))
	if n := len(j.merger.slides); n != 2 {
		t.Errorf("merger holds %d slides, want 2 (t0 and a year on)", n)
	}
	j.stop(true)
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 16<<20 {
		t.Errorf("allocated %d bytes across a year's event-time gap", grew)
	}
	starts := []time.Time{t0.Add(-time.Second), t0, ahead.Add(-time.Second), ahead, ahead.Add(time.Second)}
	items := []int64{2, 2, 1, 2, 1}
	served := j.resultsSince(-1)
	if len(served) != len(starts) {
		t.Fatalf("served %d windows, want %d: %+v", len(served), len(starts), served)
	}
	for i, w := range served {
		if !w.Start.Equal(starts[i]) || w.Items != items[i] || w.Value != float64(items[i]) {
			t.Errorf("window %d = %v %d items sum %v, want %v %d items", i, w.Start, w.Items, w.Value, starts[i], items[i])
		}
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
		`{"kind":"sum","from":"committed"}`,
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

// TestTargetErrorObservesMergedWindows: a target_error query steers its
// fraction by the relative error of the windows it is served, every served
// window once and in order (§4.2.1), not by an error of its own: the
// query's one controller reaches the fraction a controller fed the served
// windows reaches, and each shard's sampler takes it at its next delivery.
func TestTargetErrorObservesMergedWindows(t *testing.T) {
	spec := Spec{Kind: "mean", Window: 2 * time.Second, Slide: time.Second, Fraction: 0.3, TargetError: 0.002}
	if err := spec.normalize(); err != nil {
		t.Fatal(err)
	}
	j, err := newJob("q", spec, fixtureServer(t, 2), nil)
	if err != nil {
		t.Fatal(err)
	}
	events := fixtureStream(5, 5000)
	driveShards(j, events, keyedBy(2), events[0].Time, events[len(events)-1].Time)
	served := j.resultsSince(-1)
	if len(served) < 5 {
		t.Fatalf("%d windows served", len(served))
	}
	ctl := adaptive.NewController(spec.TargetError, spec.Fraction)
	for _, w := range served {
		ctl.Observe(streamapprox.Estimate{Value: w.Value, Bound: w.Error}.RelativeError())
	}
	j.mu.Lock()
	want := j.ctl.Fraction()
	j.mu.Unlock()
	if want != ctl.Fraction() || want == spec.Fraction {
		t.Fatalf("query fraction %v, want %v (moved from %v)", want, ctl.Fraction(), spec.Fraction)
	}
	for _, sh := range j.shards {
		unlock := sh.lock()
		sh.deliver(time.Time{})
		got := sh.group.ps.Fraction()
		unlock()
		if got != want {
			t.Errorf("shard %d: fraction %v after a delivery, query's %v", sh.idx, got, want)
		}
	}
}
