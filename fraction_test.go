package streamapprox

import (
	"fmt"
	"math"
	"runtime"
	"testing"
	"time"

	"streamapprox/internal/pane"
	"streamapprox/internal/sampling"
	"streamapprox/internal/stream"
	"streamapprox/internal/workload"
	"streamapprox/internal/xrand"
)

// A session asked for a fraction samples that fraction, skew or not: on
// the §5.7 mix (80/19/1 %) the 1 % sub-stream cannot fill a third of the
// budget, and what it leaves goes to the two that overflow theirs. The
// first two windows cover the bootstrap segment, sampled before any
// arrival count was known.
func TestFractionIsSpentOnSkew(t *testing.T) {
	events := workload.Generate(xrand.New(9), 8*time.Second, workload.SkewGaussian(100000)...)
	s := NewSession(SessionConfig{Query: Sum, WindowSize: 2 * time.Second, WindowSlide: time.Second, Fraction: 0.1, Seed: 9})
	b := NewEventBatch()
	defer b.Release()
	for _, e := range events {
		b.AppendEvent(e)
	}
	if err := s.PushBatch(b, 0, b.Len()); err != nil {
		t.Fatal(err)
	}
	windows := s.Poll()
	if len(windows) < 6 {
		t.Fatalf("%d windows", len(windows))
	}
	var bound float64
	for i, w := range windows[2:] {
		if got := float64(w.Sampled) / float64(w.Items); math.Abs(got-0.1) > 0.001 {
			t.Errorf("window %d: sampled %d of %d = %.4f, want 0.100 ± 1 %%", i+2, w.Sampled, w.Items, got)
		}
		bound += w.Overall.Bound / float64(len(windows)-2)
	}
	// The same windows' mean bound at commit 9cc0368, where every stratum
	// got budget/3 slots and the 1 % stratum left two thirds of its empty
	// (Sampled/Items 0.0767).
	const equalShare = 93102
	if bound >= equalShare {
		t.Errorf("mean bound %.0f is not below equal share's %d", bound, equalShare)
	}
}

// risingStream is a stream over strata whose slide segments of 5 s hold
// the given numbers of items, from 2017-12-11 on: records deal the strata
// round-robin and spread evenly over their segment.
func risingStream(strata []string, panes ...int) []Event {
	base := time.Date(2017, 12, 11, 0, 0, 0, 0, time.UTC)
	const slide = 5 * time.Second
	var events []Event
	for p, n := range panes {
		for i := 0; i < n; i++ {
			events = append(events, Event{
				Stratum: strata[i%len(strata)],
				Value:   float64(1 + (p*n+i)%13),
				Time:    base.Add(time.Duration(p)*slide + time.Duration(i)*slide/time.Duration(n)),
			})
		}
	}
	return events
}

// requireExact fails unless got holds want's windows: every window, each
// with every item sampled, the value up to summation order and bound 0.
func requireExact(t *testing.T, label string, got, want []WindowResult) {
	t.Helper()
	byStart := map[time.Time]WindowResult{}
	for _, w := range got {
		byStart[w.Start] = w
	}
	if len(byStart) != len(want) {
		t.Errorf("%s: %d windows, Exact %d", label, len(byStart), len(want))
	}
	for _, w := range want {
		g, ok := byStart[w.Start]
		switch {
		case !ok:
			t.Errorf("%s window %v: not fired", label, w.Start)
		case g.Items != w.Items || g.Sampled != int(w.Items):
			t.Errorf("%s window %v: sampled %d of %d items, Exact %d", label, w.Start, g.Sampled, g.Items, w.Items)
		case math.Abs(g.Overall.Value-w.Overall.Value) > 1e-12*math.Abs(w.Overall.Value) || g.Overall.Bound != 0:
			t.Errorf("%s window %v: %v ± %v, Exact %v", label, w.Start, g.Overall.Value, g.Overall.Bound, w.Overall.Value)
		}
	}
}

// A session asked for fraction 1 reports Exact's windows: every item, the
// same value up to summation order, and bound 0. Two strata whose panes
// hold 10, 100, 1000 and 100 items make the rate rise tenfold and fall.
func TestFractionOneIsExact(t *testing.T) {
	events := risingStream([]string{"a", "b"}, 10, 100, 1000, 100)
	cfg := Config{Query: Sum, WindowSize: 10 * time.Second, WindowSlide: 5 * time.Second}
	want, err := Exact(cfg, events)
	if err != nil {
		t.Fatal(err)
	}
	s := NewSession(SessionConfig{Query: Sum, WindowSize: cfg.WindowSize, WindowSlide: cfg.WindowSlide, Fraction: 1, Seed: 1})
	for _, e := range events {
		if err := s.Push(e); err != nil {
			t.Fatal(err)
		}
	}
	requireExact(t, "session", s.Close(), want)
}

// Run at fraction 1 serves Exact's windows on every sampling system, over
// three strata whose rate rises a hundredfold and falls.
func TestRunAtFractionOneIsExact(t *testing.T) {
	events := risingStream([]string{"a", "b", "c"}, 10, 100, 1000, 100, 5000, 50)
	cfg := Config{Fraction: 1, Query: Sum, WindowSize: 10 * time.Second, WindowSlide: 5 * time.Second, Seed: 3}
	want, err := Exact(cfg, events)
	if err != nil {
		t.Fatal(err)
	}
	for _, sys := range evaluatedSystems[:4] {
		requireExact(t, sys.name, windowsOf(t, sys, cfg, events), want)
	}
}

// Report.Sampled counts each sampled record once, however many windows
// cover it: at fraction 1 it is the item count on both of Run's samplers,
// over 10 s / 5 s windows that cover each record twice.
func TestRunSampledCountsEachRecordOnce(t *testing.T) {
	events := risingStream([]string{"a", "b"}, 100, 400, 500)
	for _, sampler := range []Sampler{OASRS, SimpleRandom} {
		rep, err := Run(Config{Sampler: sampler, Fraction: 1}, events)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Items != 1000 || rep.Sampled != rep.Items {
			t.Errorf("sampler %d: sampled %d of %d items", sampler, rep.Sampled, rep.Items)
		}
	}
}

// A fraction-1 session snapshotted in the middle of a pane restores to one
// that stays exact, through a version-3 snapshot whose budget is the
// unbounded one, exactly.
func TestFractionOneSnapshotStaysExact(t *testing.T) {
	events := risingStream([]string{"a", "b", "c"}, 10, 100, 1000, 100)
	cfg := SessionConfig{Query: Sum, WindowSize: 10 * time.Second, WindowSlide: 5 * time.Second, Fraction: 1, Seed: 5}
	want, err := Exact(Config{Query: Sum, WindowSize: cfg.WindowSize, WindowSlide: cfg.WindowSlide}, events)
	if err != nil {
		t.Fatal(err)
	}
	s := NewSession(cfg)
	cut := 110 + 500 // half way through the 1000-item pane
	for _, e := range events[:cut] {
		if err := s.Push(e); err != nil {
			t.Fatal(err)
		}
	}
	got := s.Poll()
	snap, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	st, err := pane.Decode(snap)
	if err != nil {
		t.Fatal(err)
	}
	if st.Version != pane.Version || st.Sampler == nil || st.Sampler.Budget != sampling.Unbounded {
		t.Fatalf("snapshot version %d, sampler %+v: want version %d at budget %d", st.Version, st.Sampler, pane.Version, sampling.Unbounded)
	}
	r, err := RestoreSession(snap)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range events[cut:] {
		if err := r.Push(e); err != nil {
			t.Fatal(err)
		}
	}
	requireExact(t, "restored", append(got, r.Close()...), want)
}

// A fraction-1 pane reserves no memory by the unbounded budget: over
// 2 500 strata, each reservoir's share of it is still 3.7e15 values, yet
// the session allocates only by what arrives.
func TestFractionOneAllocatesByArrivals(t *testing.T) {
	const strata, perStratum = 2500, 6
	keys := make([]string, strata)
	for i := range keys {
		keys[i] = fmt.Sprintf("s%04d", i)
	}
	events := risingStream(keys, strata*perStratum, strata*perStratum, strata*perStratum)
	b := NewEventBatch()
	defer b.Release()
	for _, e := range events {
		b.AppendEvent(stream.Event(e))
	}
	s := NewSession(SessionConfig{Query: Sum, WindowSize: 10 * time.Second, WindowSlide: 5 * time.Second, Fraction: 1})
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := s.PushBatch(b, 0, b.Len()); err != nil {
		t.Fatal(err)
	}
	windows := s.Close()
	runtime.ReadMemStats(&after)
	for _, w := range windows {
		if w.Sampled != int(w.Items) {
			t.Fatalf("window %v sampled %d of %d", w.Start, w.Sampled, w.Items)
		}
	}
	// What a pane holds per stratum (reservoir, map entries, summary
	// cells) is some hundreds of bytes; the values, 8 bytes each.
	if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(1024*strata+64*len(events)); got > limit {
		t.Errorf("allocated %d bytes over %d strata and %d records, want at most %d", got, strata, len(events), limit)
	}
}

// Run and Exact refuse an event time outside the unix-nano range, as
// Session.Push does, rather than wrapping it into another year.
func TestRunRefusesTimeOutsideUnixNanos(t *testing.T) {
	events := risingStream([]string{"a"}, 10)
	events[5].Time = time.Date(2300, 1, 1, 0, 0, 0, 0, time.UTC)
	if _, err := Exact(Config{}, events); err == nil {
		t.Error("Exact took a time in 2300")
	}
	for _, sampler := range []Sampler{OASRS, SimpleRandom} {
		if _, err := Run(Config{Sampler: sampler}, events); err == nil {
			t.Errorf("Run with sampler %d took a time in 2300", sampler)
		}
	}
	if err := NewSession(SessionConfig{}).Push(events[5]); err == nil {
		t.Error("Session.Push took a time in 2300")
	}
}
