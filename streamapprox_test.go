package streamapprox

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"
	"time"

	"streamapprox/internal/workload"
	"streamapprox/internal/xrand"
)

// testEvents builds a three-stratum Gaussian stream.
func testEvents(tb testing.TB, seconds int) []Event {
	tb.Helper()
	rng := xrand.New(42)
	internal := workload.Generate(rng, time.Duration(seconds)*time.Second,
		workload.PaperGaussian(2000, 2000, 2000)...)
	out := make([]Event, len(internal))
	for i, e := range internal {
		out[i] = Event(e)
	}
	return out
}

func TestRunDefaults(t *testing.T) {
	events := testEvents(t, 12)
	rep, err := Run(Config{}, events)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Items != int64(len(events)) {
		t.Errorf("Items = %d", rep.Items)
	}
	if len(rep.Results) == 0 {
		t.Fatal("no results")
	}
	if rep.Throughput <= 0 || rep.Elapsed <= 0 {
		t.Error("metrics not populated")
	}
	for _, r := range rep.Results {
		if r.Overall.Value <= 0 {
			t.Errorf("window [%v,%v) value %v", r.Start, r.End, r.Overall.Value)
		}
	}
}

func TestRunAgainstExact(t *testing.T) {
	events := testEvents(t, 12)
	cfg := Config{Fraction: 0.6, Seed: 9}
	rep, err := Run(cfg, events)
	if err != nil {
		t.Fatal(err)
	}
	exact, err := Exact(cfg, events)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) != len(exact) {
		t.Fatalf("windows %d vs %d", len(rep.Results), len(exact))
	}
	for i := range rep.Results {
		got, want := rep.Results[i].Overall.Value, exact[i].Overall.Value
		if math.Abs(got-want)/want > 0.05 {
			t.Errorf("window %d: %v vs exact %v", i, got, want)
		}
	}
}

func TestRunEngineSamplerMatrix(t *testing.T) {
	events := testEvents(t, 8)
	cases := []struct {
		engine  Engine
		sampler Sampler
		wantErr bool
	}{
		{Batched, OASRS, false},
		{Batched, SimpleRandom, false},
		{Batched, Stratified, false},
		{Batched, None, false},
		{Pipelined, OASRS, false},
		{Pipelined, None, false},
		{Pipelined, SimpleRandom, true},
		{Pipelined, Stratified, true},
	}
	for _, tc := range cases {
		_, err := Run(Config{Engine: tc.engine, Sampler: tc.sampler, Fraction: 0.5, Seed: 2}, events)
		if tc.wantErr && err == nil {
			t.Errorf("engine=%d sampler=%d: expected error", tc.engine, tc.sampler)
		}
		if !tc.wantErr && err != nil {
			t.Errorf("engine=%d sampler=%d: %v", tc.engine, tc.sampler, err)
		}
	}
}

func TestGroupByQueries(t *testing.T) {
	events := testEvents(t, 12)
	rep, err := Run(Config{Query: GroupByMean, Fraction: 0.6, Seed: 3}, events)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rep.Results {
		if len(r.Groups) != 3 {
			t.Fatalf("window has %d groups, want 3 (A, B, C): %v", len(r.Groups), r.Groups)
		}
		// Stratum means must be ordered A < B < C by construction.
		if !(r.Groups["A"].Value < r.Groups["B"].Value && r.Groups["B"].Value < r.Groups["C"].Value) {
			t.Errorf("group means out of order: %v", r.Groups)
		}
	}
}

func TestEstimateHelpers(t *testing.T) {
	e := Estimate{Value: 100, Bound: 10, Confidence: Confidence95}
	lo, hi := e.Interval()
	if lo != 90 || hi != 110 {
		t.Errorf("Interval = [%v, %v]", lo, hi)
	}
	if e.RelativeError() != 0.1 {
		t.Errorf("RelativeError = %v", e.RelativeError())
	}
	if (Estimate{}).RelativeError() != 0 {
		t.Error("zero estimate relative error")
	}
	neg := Estimate{Value: -100, Bound: 10}
	if neg.RelativeError() != 0.1 {
		t.Errorf("negative-value relative error = %v", neg.RelativeError())
	}
}

func TestSessionBasic(t *testing.T) {
	s := NewSession(SessionConfig{Fraction: 0.5, Seed: 4})
	events := testEvents(t, 20)
	for _, e := range events {
		if err := s.Push(e); err != nil {
			t.Fatal(err)
		}
	}
	mid := s.Poll()
	rest := s.Close()
	total := len(mid) + len(rest)
	if total < 3 {
		t.Fatalf("session produced %d windows", total)
	}
	for _, r := range append(mid, rest...) {
		if r.Items <= 0 || r.Sampled <= 0 {
			t.Errorf("window %v: items=%d sampled=%d", r.Start, r.Items, r.Sampled)
		}
		if r.Sampled > int(r.Items) {
			t.Errorf("sampled %d > items %d", r.Sampled, r.Items)
		}
	}
}

func TestSessionAccuracy(t *testing.T) {
	events := testEvents(t, 20)
	s := NewSession(SessionConfig{Fraction: 0.6, Seed: 5})
	for _, e := range events {
		_ = s.Push(e)
	}
	results := s.Close()
	exact, err := Exact(Config{}, events)
	if err != nil {
		t.Fatal(err)
	}
	exactByStart := map[time.Time]float64{}
	for _, r := range exact {
		exactByStart[r.Start] = r.Overall.Value
	}
	checked := 0
	for _, r := range results {
		want, ok := exactByStart[r.Start]
		if !ok {
			continue
		}
		checked++
		if math.Abs(r.Overall.Value-want)/want > 0.08 {
			t.Errorf("window %v: %v vs exact %v", r.Start, r.Overall.Value, want)
		}
	}
	if checked == 0 {
		t.Fatal("no windows compared")
	}
}

func TestSessionClosed(t *testing.T) {
	s := NewSession(SessionConfig{})
	_ = s.Close()
	if err := s.Push(Event{Time: time.Now()}); !errors.Is(err, ErrClosedSession) {
		t.Errorf("push after close: %v", err)
	}
	if got := s.Close(); got != nil {
		t.Error("second close returned results")
	}
}

func TestNewSessionNaNFractionDefaults(t *testing.T) {
	if got := NewSession(SessionConfig{Fraction: math.NaN()}).Fraction(); got != 0.6 {
		t.Errorf("NewSession with a NaN fraction: Fraction = %v, want the default 0.6", got)
	}
}

// TestWindowSpansWholeSlides: a window is counted over whole slide
// segments, so one that is not a whole number of slides — narrower than
// its slide, or 7s at a 5s slide — is served at the span of the segments
// it counts: End − Start covers exactly the records its Items count. Its
// results are those of the window rounded up to whole slides, from a
// Session and from Exact alike.
func TestWindowSpansWholeSlides(t *testing.T) {
	base := time.Date(2017, 12, 11, 0, 0, 0, 0, time.UTC)
	var events []Event
	for i := 0; i < 60; i++ {
		events = append(events, Event{Stratum: string(rune('a' + i%3)), Value: float64(i),
			Time: base.Add(time.Duration(i) * 500 * time.Millisecond)})
	}
	session := func(size, slide time.Duration) []WindowResult {
		s := NewSession(SessionConfig{WindowSize: size, WindowSlide: slide, Seed: 3})
		for _, e := range events {
			if err := s.Push(e); err != nil {
				t.Fatal(err)
			}
		}
		return s.Close()
	}
	exact := func(size, slide time.Duration) []WindowResult {
		out, err := Exact(Config{WindowSize: size, WindowSlide: slide}, events)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	for _, c := range []struct{ size, slide, whole time.Duration }{
		{2 * time.Second, 5 * time.Second, 5 * time.Second},
		{7 * time.Second, 5 * time.Second, 10 * time.Second},
	} {
		for name, run := range map[string]func(size, slide time.Duration) []WindowResult{"session": session, "exact": exact} {
			label := fmt.Sprintf("%s %v/%v", name, c.size, c.slide)
			got := run(c.size, c.slide)
			if len(got) == 0 {
				t.Fatalf("%s: no windows served", label)
			}
			for _, w := range got {
				var in int64
				for _, e := range events {
					if !e.Time.Before(w.Start) && e.Time.Before(w.End) {
						in++
					}
				}
				if w.Items != in {
					t.Errorf("%s: window [%v, %v) counts %d items; %d records fall in its span",
						label, w.Start.Sub(base), w.End.Sub(base), w.Items, in)
				}
			}
			if want := run(c.whole, c.slide); !reflect.DeepEqual(got, want) {
				t.Errorf("%s served\n%+v\nwant the %v window's\n%+v", label, got, c.whole, want)
			}
		}
	}
}

func TestSessionLateEvents(t *testing.T) {
	s := NewSession(SessionConfig{Seed: 6})
	base := time.Date(2017, 12, 11, 0, 0, 0, 0, time.UTC)
	_ = s.Push(Event{Stratum: "a", Value: 1, Time: base.Add(time.Minute)})
	_ = s.Push(Event{Stratum: "a", Value: 1, Time: base})
	if s.Late() != 1 {
		t.Errorf("Late = %d", s.Late())
	}
}

func TestSessionAdaptiveFeedback(t *testing.T) {
	// With a tight error target and a tiny initial fraction, the
	// controller must raise the fraction.
	s := NewSession(SessionConfig{
		Fraction:    0.02,
		TargetError: 0.0001,
		Seed:        7,
	})
	events := testEvents(t, 30)
	for _, e := range events {
		_ = s.Push(e)
	}
	_ = s.Close()
	if s.Fraction() <= 0.02 {
		t.Errorf("adaptive fraction did not grow: %v", s.Fraction())
	}
}

func TestSessionFixedFraction(t *testing.T) {
	s := NewSession(SessionConfig{Fraction: 0.4, Seed: 8})
	if s.Fraction() != 0.4 {
		t.Errorf("Fraction = %v", s.Fraction())
	}
}

func TestConfidenceMapping(t *testing.T) {
	if Confidence(0).internal().Sigmas() != 2 {
		t.Error("default confidence should be 95%")
	}
	if Confidence997.internal().Sigmas() != 3 {
		t.Error("Confidence997 mapping")
	}
}

func TestRunDeterminism(t *testing.T) {
	events := testEvents(t, 8)
	a, _ := Run(Config{Fraction: 0.4, Seed: 11}, events)
	b, _ := Run(Config{Fraction: 0.4, Seed: 11}, events)
	for i := range a.Results {
		if a.Results[i].Overall.Value != b.Results[i].Overall.Value {
			t.Fatalf("non-deterministic at window %d", i)
		}
	}
}

func TestSessionHistogram(t *testing.T) {
	s := NewSession(SessionConfig{
		Query:          Histogram,
		HistogramEdges: []float64{0, 100, 2000, 20000},
		Fraction:       0.5,
		Seed:           9,
	})
	for _, e := range testEvents(t, 12) {
		if err := s.Push(e); err != nil {
			t.Fatal(err)
		}
	}
	results := s.Close()
	if len(results) == 0 {
		t.Fatal("no windows")
	}
	for _, r := range results {
		if len(r.Buckets) != 3 {
			t.Fatalf("window %v has %d buckets", r.Start, len(r.Buckets))
		}
		var total float64
		for _, b := range r.Buckets {
			total += b.Count.Value
		}
		// The three Gaussian strata lie one per bucket; bucket counts
		// must roughly reconstruct the window population.
		if rel := total / float64(r.Items); rel < 0.9 || rel > 1.1 {
			t.Errorf("window %v bucket total %v vs %d items", r.Start, total, r.Items)
		}
	}
}
