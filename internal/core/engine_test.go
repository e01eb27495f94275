package core

import (
	"math"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"streamapprox/internal/estimate"
	"streamapprox/internal/query"
	"streamapprox/internal/sampling"
	"streamapprox/internal/stream"
	"streamapprox/internal/xrand"
)

func batchEvents(n int, strata ...string) []stream.Event {
	if len(strata) == 0 {
		strata = []string{"s"}
	}
	base := time.Date(2017, 12, 11, 0, 0, 0, 0, time.UTC)
	out := make([]stream.Event, n)
	for i := range out {
		out[i] = stream.Event{
			Stratum: strata[i%len(strata)],
			Value:   float64(i),
			Time:    base.Add(time.Duration(i) * time.Millisecond),
		}
	}
	return out
}

func TestSampleApproxPreDatasetRespectsFraction(t *testing.T) {
	rng := xrand.New(1)
	d := sampling.NewDistributedOASRS(1, 4, nil, rng.Split())
	cfg := Config{Fraction: 0.25}.withDefaults()
	cfg.Fraction = 0.25

	events := batchEvents(8000, "a", "b")
	// First batch over-allocates (no stratum history); the second batch
	// must honour the fraction.
	_ = sampleApproxPreDataset(cfg, d, events)
	s := sampleApproxPreDataset(cfg, d, events)
	got := float64(s.SampledCount()) / float64(len(events))
	if got > 0.30 || got < 0.15 {
		t.Errorf("steady-state sampled fraction = %.3f, want ≈0.25", got)
	}
	if s.TotalCount() != int64(len(events)) {
		t.Errorf("TotalCount = %d", s.TotalCount())
	}
}

func TestSampleSRSOnDatasetFractionAndWeight(t *testing.T) {
	cfg := Config{Fraction: 0.5}.withDefaults()
	cfg.Fraction = 0.5
	events := batchEvents(4000, "a", "b", "c")
	s := sampleSRSOnDataset(cfg, xrand.New(2), events)
	if len(s.Strata) != 1 || s.Strata[0].Stratum != sampling.SRSPseudoStratum {
		t.Fatalf("SRS sample shape: %+v", s.Strata)
	}
	got := float64(s.SampledCount()) / float64(len(events))
	if got < 0.48 || got > 0.52 {
		t.Errorf("SRS fraction = %.3f", got)
	}
	st := s.Strata[0]
	if int64(st.Weight*float64(len(st.Values))+0.5) != st.Count {
		t.Errorf("weight does not reconstruct count: W=%v Y=%d C=%d",
			st.Weight, len(st.Values), st.Count)
	}
	if len(st.Keys) != len(st.Values) {
		t.Errorf("merged SRS sample has %d keys for %d values", len(st.Keys), len(st.Values))
	}
}

func TestSampleSTSOnDatasetPerStratum(t *testing.T) {
	cfg := Config{Fraction: 0.5}.withDefaults()
	cfg.Fraction = 0.5
	events := batchEvents(3000, "a", "b", "c")
	s := sampleSTSOnDataset(cfg, xrand.New(3), events)
	if len(s.Strata) != 3 {
		t.Fatalf("STS strata = %d", len(s.Strata))
	}
	for _, st := range s.Strata {
		if st.Count != 1000 {
			t.Errorf("stratum %s count %d", st.Stratum, st.Count)
		}
		if len(st.Values) != 500 { // exact mode
			t.Errorf("stratum %s sampled %d, want 500", st.Stratum, len(st.Values))
		}
	}
}

func TestNativeDatasetSampleIsExact(t *testing.T) {
	events := batchEvents(100, "x", "y")
	s := nativeDatasetSample(Config{Workers: 2}.withDefaults(), events)
	if s.SampledCount() != 100 || s.TotalCount() != 100 {
		t.Errorf("native sample %d/%d", s.SampledCount(), s.TotalCount())
	}
	for _, st := range s.Strata {
		if st.Weight != 1 {
			t.Errorf("native weight = %v", st.Weight)
		}
	}
}

func TestSamplingOperatorSegments(t *testing.T) {
	op := &samplingOperator{
		slide:    5 * time.Second,
		fraction: 0.5,
		q:        query.NewSum(estimate.Conf95),
		rng:      xrand.New(4),
	}
	base := time.Date(2017, 12, 11, 0, 0, 0, 0, time.UTC)
	// Three slide segments' worth of events.
	for sec := 0; sec < 15; sec++ {
		for k := 0; k < 100; k++ {
			op.add(stream.Event{
				Stratum: "s", Value: 1,
				Time: base.Add(time.Duration(sec)*time.Second + time.Duration(k)*time.Millisecond),
			})
		}
	}
	op.flush()
	if got := len(op.panes); got != 3 {
		t.Fatalf("operator produced %d panes, want 3", got)
	}
	for _, p := range op.panes {
		if total := p.Summary.TotalCount(); total != 500 {
			t.Errorf("segment %v counted %d items, want 500", p.Start, total)
		}
	}
}

func TestSamplingOperatorNativeKeepsAll(t *testing.T) {
	op := &samplingOperator{
		slide:  5 * time.Second,
		native: true,
		q:      query.NewSum(estimate.Conf95),
		rng:    xrand.New(5),
	}
	base := time.Date(2017, 12, 11, 0, 0, 0, 0, time.UTC)
	for i := 0; i < 1000; i++ {
		op.add(stream.Event{Stratum: "s", Value: 1, Time: base.Add(time.Duration(i) * time.Millisecond)})
	}
	op.flush()
	var sampled int
	for _, p := range op.panes {
		sampled += p.Summary.SampledCount()
	}
	if sampled != 1000 {
		t.Errorf("native operator kept %d of 1000", sampled)
	}
}

func TestPaneJoinsOverlappingWindows(t *testing.T) {
	w := newWindows(Config{}.withDefaults())
	base := time.Date(2017, 12, 11, 0, 0, 10, 0, time.UTC)
	s := &sampling.Sample{Strata: []sampling.StratumSample{{
		Stratum: "a", Count: 4, Weight: 1,
		Values: []float64{1},
	}}}
	w.Add(base, w.q.Summarize(s))
	// The segment at t=10s belongs to windows [5,15) and [10,20).
	results := w.flush()
	if len(results) != 2 {
		t.Fatalf("flushed %d windows", len(results))
	}
	for _, r := range results {
		if r.Items != 4 {
			t.Errorf("window %v items %d", r.Start, r.Items)
		}
	}
}

func TestWindowsFireCutoff(t *testing.T) {
	w := newWindows(Config{}.withDefaults())
	base := time.Date(2017, 12, 11, 0, 0, 0, 0, time.UTC)
	s := &sampling.Sample{Strata: []sampling.StratumSample{{Stratum: "a", Count: 1, Weight: 1}}}
	w.Add(base, w.q.Summarize(s)) // windows [-5,5) and [0,10)
	w.Fire(base.Add(6*time.Second), w.emit)
	if len(w.out) != 1 {
		t.Fatalf("cutoff fire fired %d windows, want 1 ([-5,5))", len(w.out))
	}
	if !w.out[0].End.Equal(base.Add(5 * time.Second)) {
		t.Errorf("fired window ends %v", w.out[0].End)
	}
}

func TestRecordCostDeterministic(t *testing.T) {
	if recordCost("tcp", 123.456) != recordCost("tcp", 123.456) {
		t.Error("recordCost not deterministic")
	}
	if recordCost("tcp", 123.456) == recordCost("tcp", 123.457) {
		t.Error("recordCost ignores the value")
	}
	if recordCost("tcp", 123.456) == recordCost("udp", 123.456) {
		t.Error("recordCost ignores the stratum")
	}
}

func TestRunJobCountsEverything(t *testing.T) {
	parts := stream.PartitionRoundRobin(batchEvents(1234), 4)
	res := runJob(parts)
	if res.count != 1234 {
		t.Errorf("job counted %d", res.count)
	}
	if res.sum == 0 || res.checksum == 0 {
		t.Error("job result fields not populated")
	}
	var serial jobResult
	for stratum, items := range stream.PartitionByStratum(slices.Concat(parts...)) {
		values := make([]float64, len(items))
		for i, e := range items {
			values[i] = e.Value
		}
		serial = serial.merge(runJobSerial(stratum, values))
	}
	if serial.count != res.count || math.Abs(serial.sum-res.sum) > 1e-9*res.sum || serial.checksum != res.checksum {
		t.Errorf("serial job disagrees: %+v vs %+v", serial, res)
	}
}

func TestCutBatchesAtInterval(t *testing.T) {
	events := batchEvents(35) // 1 event/ms
	batches := cutBatches(events, 10*time.Millisecond)
	if len(batches) != 4 {
		t.Fatalf("got %d batches, want 4", len(batches))
	}
	for i, b := range batches {
		want := 10
		if i == 3 {
			want = 5 // the partial last batch
		}
		if len(b.events) != want {
			t.Errorf("batch %d has %d events, want %d", i, len(b.events), want)
		}
		if !b.start.Equal(events[0].Time.Add(time.Duration(i) * 10 * time.Millisecond)) {
			t.Errorf("batch %d starts %v", i, b.start)
		}
	}
	if got := cutBatches(nil, time.Second); got != nil {
		t.Errorf("cutBatches(nil) = %v", got)
	}
}

// TestCutBatchesSkipsEmptyIntervals: a gap in event time cuts no batch,
// however short or long it is.
func TestCutBatchesSkipsEmptyIntervals(t *testing.T) {
	base := time.Date(2017, 12, 11, 0, 0, 0, 0, time.UTC)
	for _, gap := range []time.Duration{20 * time.Millisecond, time.Hour} {
		events := []stream.Event{{Time: base}, {Time: base.Add(gap)}}
		batches := cutBatches(events, 10*time.Millisecond)
		if len(batches) != 2 || len(batches[0].events) != 1 || !batches[1].start.Equal(base.Add(gap)) {
			t.Errorf("gap %v: batches %+v, want one per event", gap, batches)
		}
	}
}

func TestParallelRunsAllTasks(t *testing.T) {
	var n atomic.Int64
	parallel(100, func(int) { n.Add(1) })
	if n.Load() != 100 {
		t.Errorf("ran %d tasks, want 100", n.Load())
	}
}

func TestParallelStageBarrier(t *testing.T) {
	done := make([]bool, 8)
	parallel(len(done), func(i int) {
		time.Sleep(time.Millisecond)
		done[i] = true
	})
	for i, ok := range done {
		if !ok {
			t.Errorf("task %d not done when parallel returned", i)
		}
	}
}
