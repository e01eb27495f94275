package streamapprox

import (
	"math"
	"testing"
	"time"

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

// A session asked for fraction 1 reports Exact's windows: every item, the
// same value up to summation order, and bound 0. Two strata whose panes
// hold 10, 100, 1000 and 100 items make the rate rise tenfold and fall.
func TestFractionOneIsExact(t *testing.T) {
	t.Skip("red until ROADMAP item 1(d): a pane's budget is the fraction of the previous pane's arrivals, so at f = 1 the [0 s, 10 s) window samples 20 of 110 items")
	base := time.Date(2017, 12, 11, 0, 0, 0, 0, time.UTC)
	const slide = 5 * time.Second
	var events []Event
	for p, n := range []int{10, 100, 1000, 100} {
		for i := 0; i < n; i++ {
			events = append(events, Event{
				Stratum: []string{"a", "b"}[i%2],
				Value:   float64(1 + (p*n+i)%13),
				Time:    base.Add(time.Duration(p)*slide + time.Duration(i)*slide/time.Duration(n)),
			})
		}
	}
	want, err := Exact(Config{Query: Sum, WindowSize: 2 * slide, WindowSlide: slide}, events)
	if err != nil {
		t.Fatal(err)
	}
	s := NewSession(SessionConfig{Query: Sum, WindowSize: 2 * slide, WindowSlide: slide, Fraction: 1, Seed: 1})
	for _, e := range events {
		if err := s.Push(e); err != nil {
			t.Fatal(err)
		}
	}
	got := map[time.Time]WindowResult{}
	for _, w := range s.Close() {
		got[w.Start] = w
	}
	if len(got) != len(want) {
		t.Errorf("session fired %d windows, Exact %d", len(got), len(want))
	}
	for _, w := range want {
		g, ok := got[w.Start]
		switch {
		case !ok:
			t.Errorf("window %v: not fired", w.Start.Sub(base))
		case g.Items != w.Items || g.Sampled != int(w.Items):
			t.Errorf("window %v: sampled %d of %d items, Exact %d", w.Start.Sub(base), g.Sampled, g.Items, w.Items)
		case math.Abs(g.Overall.Value-w.Overall.Value) > 1e-12*math.Abs(w.Overall.Value) || g.Overall.Bound != 0:
			t.Errorf("window %v: %v ± %v, Exact %v", w.Start.Sub(base), g.Overall.Value, g.Overall.Bound, w.Overall.Value)
		}
	}
}
