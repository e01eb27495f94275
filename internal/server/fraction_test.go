package server

import (
	"math"
	"testing"
	"time"

	"streamapprox"
	"streamapprox/internal/broker"
	"streamapprox/internal/stream"
)

// TestServedFractionOneIsExact: queries registered at fraction 1 over a
// pre-loaded log, so no idle punctuation fires, serve Exact's windows
// over 1 and 4 partitions: every window, each with every item sampled,
// the value and every group's up to summation order, and bound 0. Three
// strata's rate rises a hundredfold and falls.
func TestServedFractionOneIsExact(t *testing.T) {
	base := time.Date(2017, 12, 11, 0, 0, 0, 0, time.UTC)
	const slide = 5 * time.Second
	var events []stream.Event
	for p, n := range []int{10, 100, 1000, 100, 5000, 50} {
		for i := 0; i < n; i++ {
			events = append(events, stream.Event{
				Stratum: []string{"a", "b", "c"}[i%3],
				Value:   float64(1 + (p*n+i)%13),
				Time:    base.Add(time.Duration(p)*slide + time.Duration(i)*slide/time.Duration(n)),
			})
		}
	}
	public := make([]streamapprox.Event, len(events))
	for i, e := range events {
		public[i] = streamapprox.Event(e)
	}
	kinds := []struct {
		kind  string
		query streamapprox.Query
	}{{"sum", streamapprox.Sum}, {"groupby-sum", streamapprox.GroupBySum}}
	for _, partitions := range []int{1, 4} {
		b := broker.New()
		if err := b.CreateTopic("in", partitions); err != nil {
			t.Fatal(err)
		}
		if _, err := produceEvents(b, "in", events); err != nil {
			t.Fatal(err)
		}
		s, err := New(Config{Cluster: b, Topic: "in", PollBackoff: time.Millisecond, CheckpointEvery: time.Hour})
		if err != nil {
			t.Fatal(err)
		}
		ids := make([]string, len(kinds))
		for i, k := range kinds {
			if ids[i], err = s.Register(Spec{Kind: k.kind, Window: 2 * slide, Slide: slide, Fraction: 1}); err != nil {
				t.Fatal(err)
			}
		}
		for _, id := range ids {
			for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
				if records, _, _ := s.Stats(id); records == int64(len(events)) {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("%d partitions, %s: records not all consumed", partitions, id)
				}
			}
		}
		for i, k := range kinds {
			j, _ := s.job(ids[i])
			if err := s.Deregister(ids[i]); err != nil { // flushes every window
				t.Fatal(err)
			}
			want, err := streamapprox.Exact(streamapprox.Config{Query: k.query, WindowSize: 2 * slide, WindowSlide: slide}, public)
			if err != nil {
				t.Fatal(err)
			}
			requireServedExact(t, partitions, k.kind, j.resultsSince(-1), want)
		}
		s.Close()
	}
}

// requireServedExact fails unless got holds want's windows exactly.
func requireServedExact(t *testing.T, partitions int, kind string, got []MergedWindow, want []streamapprox.WindowResult) {
	t.Helper()
	near := func(g, w float64) bool { return math.Abs(g-w) <= 1e-12*math.Abs(w) }
	byStart := map[time.Time]MergedWindow{}
	for _, w := range got {
		byStart[w.Start] = w
	}
	if len(byStart) != len(want) {
		t.Errorf("%d partitions, %s: %d windows, Exact %d", partitions, kind, len(byStart), len(want))
	}
	for _, w := range want {
		g, ok := byStart[w.Start]
		switch {
		case !ok:
			t.Errorf("%d partitions, %s window %v: not served", partitions, kind, w.Start)
			continue
		case g.Items != w.Items || g.Sampled != int(w.Items):
			t.Errorf("%d partitions, %s window %v: sampled %d of %d items, Exact %d", partitions, kind, w.Start, g.Sampled, g.Items, w.Items)
		case !near(g.Value, w.Overall.Value) || g.Error != 0:
			t.Errorf("%d partitions, %s window %v: %v ± %v, Exact %v", partitions, kind, w.Start, g.Value, g.Error, w.Overall.Value)
		}
		if len(g.Groups) != len(w.Groups) {
			t.Errorf("%d partitions, %s window %v: groups %v, Exact %v", partitions, kind, w.Start, g.Groups, w.Groups)
		}
		for key, wg := range w.Groups {
			if gg, ok := g.Groups[key]; !ok || !near(gg.Value, wg.Value) || gg.Error != 0 {
				t.Errorf("%d partitions, %s window %v group %s: %+v, Exact %v", partitions, kind, w.Start, key, gg, wg.Value)
			}
		}
	}
}
