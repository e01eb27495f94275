package streamapprox

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"slices"
	"testing"
	"time"

	"streamapprox/internal/stream"
)

// sessionParentFile is testdata/session_parent.json: what Session served
// on seeded streams, written by the build whose windows fired when the
// segment after them finished — a window closed by an event-time gap left
// with the segment after the gap, not with the event that ended the gap.
// sessionParentCases is its generator.
const sessionParentFile = "testdata/session_parent.json"

// parentCase is one stream, query and slide: the hash of each window's
// JSON bytes, in the order Poll after every 97 records and then Close
// served them, and the session after every 97 records. Push and PushBatch
// served the same at that build, so one case holds for both.
type parentCase struct {
	Name    string        `json:"name"`
	Windows []string      `json:"windows"`
	Chunks  []parentChunk `json:"chunks"`
	raw     [][]byte      // each window's JSON, for a failure to show
}

// parentChunk is the session after one 97-record chunk: its late count,
// the hash of its snapshot without the ready list, the panes and the
// fired mark (rest), the fired mark and each pane's start and hash.
type parentChunk struct {
	Late  int64        `json:"late"`
	Rest  string       `json:"rest"`
	Fired time.Time    `json:"fired"`
	Panes []parentPane `json:"panes"`
}

type parentPane struct {
	Start time.Time `json:"start"`
	Sum   string    `json:"sum"`
}

const parentChunkLen = 97

var (
	parentSlides = []time.Duration{300 * time.Millisecond, time.Second, 3 * time.Second, 7 * time.Second, 11 * time.Second}
	parentKinds  = []Query{Sum, Count, Mean, GroupBySum, GroupByMean, GroupByCount, Histogram}
)

// parentConfig is seed's session: each of the 35 (slide, kind) pairs
// once over seeds 0–34, a window of one to three slides and a fixed
// fraction.
func parentConfig(seed int) SessionConfig {
	slide := parentSlides[seed%len(parentSlides)]
	return SessionConfig{
		Query:          parentKinds[seed%len(parentKinds)],
		WindowSize:     slide * time.Duration(1+seed%3),
		WindowSlide:    slide,
		Fraction:       0.2 + 0.1*float64(seed%7),
		HistogramEdges: []float64{0, 1, 5, 20, 100, 1000},
		Seed:           uint64(seed + 1),
	}
}

// parentStream is seed's stream of about 22 slides: a head of zero to
// four zero-time records, then mostly forward steps, with duplicate
// times, late records up to three slides behind and gaps of two to six
// slides, starting at a random millisecond so segments fall anywhere
// against the second.
func parentStream(seed int, slide time.Duration) []Event {
	rng := rand.New(rand.NewSource(int64(seed)))
	strata := []string{"a", "b", "c", "d"}
	scale := []float64{1, 4, 30, 200}
	event := func(t time.Time) Event {
		k := rng.Intn(len(strata))
		return Event{Stratum: strata[k], Value: scale[k] * rng.ExpFloat64(), Time: t}
	}
	var events []Event
	for i := rng.Intn(5); i > 0; i-- {
		events = append(events, event(time.Time{}))
	}
	t := time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC).Add(time.Duration(rng.Int63n(int64(time.Hour))) / time.Millisecond * time.Millisecond)
	step := slide / 40
	for len(events) < 800 {
		switch r := rng.Intn(100); {
		case r < 8:
			events = append(events, event(t.Add(-time.Duration(1+rng.Int63n(int64(3*slide))))))
			continue
		case r < 16: // a duplicate time
		case r < 18:
			t = t.Add(time.Duration(2+rng.Intn(5)) * slide)
		default:
			t = t.Add(time.Duration(rng.Int63n(int64(2 * step))))
		}
		events = append(events, event(t))
	}
	return events
}

// runParent feeds seed's stream to a fresh session in 97-record chunks,
// through Push or through PushBatch, and returns what the fixture
// records.
func runParent(t *testing.T, seed int, batched bool) parentCase {
	t.Helper()
	cfg := parentConfig(seed)
	events := parentStream(seed, cfg.WindowSlide)
	s := NewSession(cfg)
	c := parentCase{Name: fmt.Sprintf("seed %d: %v window %v slide %v", seed, cfg.Query, cfg.WindowSize, cfg.WindowSlide)}
	var wins []WindowResult
	for i := 0; i < len(events); i += parentChunkLen {
		chunk := events[i:min(i+parentChunkLen, len(events))]
		if batched {
			b := batchOf(chunk)
			if err := s.PushBatch(b, 0, b.Len()); err != nil {
				t.Fatal(err)
			}
			b.Release()
		} else {
			for _, e := range chunk {
				if err := s.Push(e); err != nil {
					t.Fatal(err)
				}
			}
		}
		snap, err := s.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		c.Chunks = append(c.Chunks, parentChunkOf(t, s.Late(), snap))
		wins = append(wins, s.Poll()...)
	}
	for _, w := range append(wins, s.Close()...) {
		raw, err := json.Marshal(parentWindowOf(w, cfg, events))
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		c.Windows, c.raw = append(c.Windows, shortHash(raw)), append(c.raw, raw)
	}
	return c
}

// parentWindow is WindowResult as the fixture's build encoded it: with
// GroupItems, a group-by window's items observed per stratum.
type parentWindow struct {
	Start, End time.Time
	Overall    Estimate
	Groups     map[string]Estimate
	GroupItems map[string]int64
	Buckets    []HistogramBucket
	Items      int64
	Sampled    int
}

// parentWindowOf is w in the fixture build's form. Its GroupItems count
// by stratum the events the session took, not late, whose segment lies
// in the window; zero-time records join the first segment after them.
func parentWindowOf(w WindowResult, cfg SessionConfig, events []Event) parentWindow {
	pw := parentWindow{Start: w.Start, End: w.End, Overall: w.Overall, Groups: w.Groups,
		Buckets: w.Buckets, Items: w.Items, Sampled: w.Sampled}
	if len(w.Groups) == 0 {
		return pw
	}
	pw.GroupItems = map[string]int64{}
	probe := NewSession(cfg)
	wm := int64(stream.ZeroTimeNanos)
	var head []string // zero-time strata waiting for a segment
	for _, e := range events {
		n, _ := unixNanos(e.Time)
		seg, ok := probe.segmentOf(n)
		if n < wm || !ok {
			continue
		}
		wm = n
		if head = append(head, e.Stratum); n == stream.ZeroTimeNanos {
			continue
		}
		if at := stream.TimeFromNanos(seg); !at.Before(w.Start) && at.Before(w.End) {
			for _, k := range head {
				pw.GroupItems[k]++
			}
		}
		head = head[:0]
	}
	return pw
}

func parentChunkOf(t *testing.T, late int64, snap []byte) parentChunk {
	t.Helper()
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(snap, &fields); err != nil {
		t.Fatal(err)
	}
	var st sessionState
	if err := json.Unmarshal(snap, &st); err != nil {
		t.Fatal(err)
	}
	delete(fields, "ready")
	delete(fields, "panes")
	delete(fields, "fired")
	rest, err := json.Marshal(fields)
	if err != nil {
		t.Fatal(err)
	}
	c := parentChunk{Late: late, Rest: shortHash(rest), Fired: st.Fired, Panes: []parentPane{}}
	for _, p := range st.Panes {
		sum, err := json.Marshal(p.Summary)
		if err != nil {
			t.Fatal(err)
		}
		c.Panes = append(c.Panes, parentPane{Start: p.Start, Sum: shortHash(sum)})
	}
	return c
}

func shortHash(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:8])
}

// sessionParentCases is every case of the fixture, each checked to be
// the same through Push and PushBatch.
func sessionParentCases(t *testing.T) []parentCase {
	t.Helper()
	var cases []parentCase
	for seed := 0; seed < len(parentSlides)*len(parentKinds); seed++ {
		c := runParent(t, seed, false)
		if b := runParent(t, seed, true); !reflect.DeepEqual(b.Windows, c.Windows) || !reflect.DeepEqual(b.Chunks, c.Chunks) {
			t.Fatalf("%s: Push and PushBatch differ", c.Name)
		}
		cases = append(cases, c)
	}
	return cases
}

// TestSessionMatchesParent pins Session to the build before windows fired
// when the next segment starts: on every case, through Push and through
// PushBatch, every window's JSON bytes (by hash) and every late count
// are the parent's. After every chunk the snapshot is the parent's but for
// windows leaving earlier: its ready list is not compared, its fired mark
// is at or past the parent's, and its panes are the parent's that a
// window ending after that mark still covers.
func TestSessionMatchesParent(t *testing.T) {
	raw, err := os.ReadFile(sessionParentFile)
	if err != nil {
		t.Fatal(err)
	}
	var want []parentCase
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(parentSlides)*len(parentKinds) {
		t.Fatalf("fixture has %d cases", len(want))
	}
	for seed, w := range want {
		size := parentConfig(seed).WindowSize
		for _, batched := range []bool{false, true} {
			g := runParent(t, seed, batched)
			label := fmt.Sprintf("%s (batched %v)", g.Name, batched)
			if g.Name != w.Name {
				t.Fatalf("%s: fixture case is %s", label, w.Name)
			}
			if len(g.Windows) != len(w.Windows) {
				t.Errorf("%s: %d windows, want %d", label, len(g.Windows), len(w.Windows))
			}
			for i := range min(len(g.Windows), len(w.Windows)) {
				if g.Windows[i] != w.Windows[i] {
					t.Errorf("%s: window %d is not the parent's: %s", label, i, g.raw[i])
				}
			}
			if len(g.Chunks) != len(w.Chunks) {
				t.Fatalf("%s: %d chunks, want %d", label, len(g.Chunks), len(w.Chunks))
			}
			for i, gc := range g.Chunks {
				wc := w.Chunks[i]
				if gc.Late != wc.Late || gc.Rest != wc.Rest {
					t.Errorf("%s chunk %d: late %d, snapshot %s; want late %d, snapshot %s", label, i, gc.Late, gc.Rest, wc.Late, wc.Rest)
				}
				kept := slices.DeleteFunc(slices.Clone(wc.Panes), func(p parentPane) bool { return !p.Start.Add(size).After(gc.Fired) })
				if gc.Fired.Before(wc.Fired) || !reflect.DeepEqual(gc.Panes, kept) {
					t.Errorf("%s chunk %d: fired %v, panes %v; parent fired %v, panes %v", label, i, gc.Fired, gc.Panes, wc.Fired, wc.Panes)
				}
			}
		}
	}
}
