package core

import (
	"math"
	"testing"
	"time"

	"streamapprox/internal/batch"
	"streamapprox/internal/sampling"
	"streamapprox/internal/stream"
	"streamapprox/internal/window"
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
	pool := batch.NewPool(4)
	defer pool.Close()
	rng := xrand.New(1)
	d := sampling.NewDistributedOASRS(1, pool.Size(), nil, rng.Split())
	cfg := Config{Fraction: 0.25}.withDefaults()
	cfg.Fraction = 0.25

	events := batchEvents(8000, "a", "b")
	// First batch over-allocates (no stratum history); the second batch
	// must honour the fraction.
	_ = sampleApproxPreDataset(cfg, pool, d, events)
	s := sampleApproxPreDataset(cfg, pool, d, events)
	got := float64(s.SampledCount()) / float64(len(events))
	if got > 0.30 || got < 0.15 {
		t.Errorf("steady-state sampled fraction = %.3f, want ≈0.25", got)
	}
	if s.TotalCount() != int64(len(events)) {
		t.Errorf("TotalCount = %d", s.TotalCount())
	}
}

func TestSampleSRSOnDatasetFractionAndWeight(t *testing.T) {
	pool := batch.NewPool(4)
	defer pool.Close()
	cfg := Config{Fraction: 0.5}.withDefaults()
	cfg.Fraction = 0.5
	events := batchEvents(4000, "a", "b", "c")
	s := sampleSRSOnDataset(cfg, pool, xrand.New(2), events)
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
	pool := batch.NewPool(4)
	defer pool.Close()
	cfg := Config{Fraction: 0.5}.withDefaults()
	cfg.Fraction = 0.5
	events := batchEvents(3000, "a", "b", "c")
	s := sampleSTSOnDataset(cfg, pool, xrand.New(3), events)
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
	pool := batch.NewPool(2)
	defer pool.Close()
	events := batchEvents(100, "x", "y")
	s := nativeDatasetSample(pool, events)
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
	collector := &segmentCollector{segments: make(map[time.Time][]*sampling.Sample)}
	op := &samplingOperator{
		slide:     5 * time.Second,
		fraction:  0.5,
		rng:       xrand.New(4),
		collector: collector,
	}
	base := time.Date(2017, 12, 11, 0, 0, 0, 0, time.UTC)
	emit := func(stream.Event) {}
	// Three slide segments' worth of events.
	for sec := 0; sec < 15; sec++ {
		for k := 0; k < 100; k++ {
			op.Process(stream.Event{
				Stratum: "s", Value: 1,
				Time: base.Add(time.Duration(sec)*time.Second + time.Duration(k)*time.Millisecond),
			}, emit)
		}
	}
	op.Flush(emit)
	if got := len(collector.segments); got != 3 {
		t.Fatalf("operator produced %d segments, want 3", got)
	}
	for seg, samples := range collector.segments {
		var total int64
		for _, s := range samples {
			total += s.TotalCount()
		}
		if total != 500 {
			t.Errorf("segment %v counted %d items, want 500", seg, total)
		}
	}
}

func TestSamplingOperatorNativeKeepsAll(t *testing.T) {
	collector := &segmentCollector{segments: make(map[time.Time][]*sampling.Sample)}
	op := &samplingOperator{
		slide:     5 * time.Second,
		native:    true,
		rng:       xrand.New(5),
		collector: collector,
	}
	base := time.Date(2017, 12, 11, 0, 0, 0, 0, time.UTC)
	emit := func(stream.Event) {}
	for i := 0; i < 1000; i++ {
		op.Process(stream.Event{Stratum: "s", Value: 1, Time: base.Add(time.Duration(i) * time.Millisecond)}, emit)
	}
	op.Flush(emit)
	var sampled int
	for _, samples := range collector.segments {
		for _, s := range samples {
			sampled += s.SampledCount()
		}
	}
	if sampled != 1000 {
		t.Errorf("native operator kept %d of 1000", sampled)
	}
}

func TestWindowAccumulatorAssignsToOverlappingWindows(t *testing.T) {
	acc := newWindowAccumulator(10*time.Second, 5*time.Second)
	base := time.Date(2017, 12, 11, 0, 0, 10, 0, time.UTC)
	s := &sampling.Sample{Strata: []sampling.StratumSample{{
		Stratum: "a", Count: 4, Weight: 1,
		Values: []float64{1},
	}}}
	acc.add(base, s)
	// The segment at t=10s belongs to windows [5,15) and [10,20).
	if got := len(acc.pending); got != 2 {
		t.Fatalf("pending windows = %d, want 2", got)
	}
	results := acc.drain(time.Time{}, Config{}.withDefaults().Query)
	if len(results) != 2 {
		t.Fatalf("drained %d windows", len(results))
	}
	for _, r := range results {
		if r.Items != 4 {
			t.Errorf("window %v items %d", r.Window, r.Items)
		}
	}
}

func TestWindowAccumulatorDrainCutoff(t *testing.T) {
	acc := newWindowAccumulator(10*time.Second, 5*time.Second)
	base := time.Date(2017, 12, 11, 0, 0, 0, 0, time.UTC)
	s := &sampling.Sample{Strata: []sampling.StratumSample{{Stratum: "a", Count: 1, Weight: 1}}}
	acc.add(base, s) // windows [-5,5) and [0,10)
	got := acc.drain(base.Add(6*time.Second), Config{}.withDefaults().Query)
	if len(got) != 1 {
		t.Fatalf("cutoff drain fired %d windows, want 1 ([-5,5))", len(got))
	}
	if !got[0].Window.End.Equal(base.Add(5 * time.Second)) {
		t.Errorf("fired window %v", got[0].Window)
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
	pool := batch.NewPool(4)
	defer pool.Close()
	ds := batch.NewDataset(pool, batchEvents(1234))
	res := runJob(ds)
	if res.count != 1234 {
		t.Errorf("job counted %d", res.count)
	}
	if res.sum == 0 || res.checksum == 0 {
		t.Error("job result fields not populated")
	}
	var serial jobResult
	for stratum, items := range stream.PartitionByStratum(ds.Collect()) {
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

func TestWindowHelpersSorted(t *testing.T) {
	base := time.Date(2017, 12, 11, 0, 0, 0, 0, time.UTC)
	rs := []WindowResult{
		{Window: window.Window{Start: base.Add(10 * time.Second)}},
		{Window: window.Window{Start: base}},
		{Window: window.Window{Start: base.Add(5 * time.Second)}},
	}
	sortResults(rs)
	for i := 1; i < len(rs); i++ {
		if rs[i].Window.Start.Before(rs[i-1].Window.Start) {
			t.Fatal("sortResults did not sort")
		}
	}
}
