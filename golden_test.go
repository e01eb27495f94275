package streamapprox

import (
	"bytes"
	"encoding/json"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"os"
	"slices"
	"strings"
	"testing"
	"time"

	"streamapprox/internal/pane"
	"streamapprox/internal/xrand"
)

// testdata/session_v1.json was written at commit 82a61bd — the last one
// whose sessions kept sample rows per pending window (snapshot version
// 1) — by pushing goldenStream through goldenPush: per query kind, the
// snapshot taken after goldenCut chunks (mid-segment, two windows
// pending) and every window that run produced afterwards. Version 1 is
// two formats back: its restore is refused with an error naming the
// format, its version, the versions read and the last commit that
// upgrades it, and the fixture is left as it was.
//
// The windows of session_v3.json and session_v3_latency.json were
// re-recorded three times: when reservoirs began to carry their skip
// chain across calls, when each stratum's reservoir began to draw from
// its own keyed stream, and when each pane's interval seed began to be
// derived from the seed and the pane's start. Each time a restored
// session drew other numbers than the writer did, so the values moved,
// while every window's bounds, items, samples and groups stayed those the
// code before the change produced. The snapshots are the writers' bytes.

const (
	goldenChunk = 37 // events per PushBatch; straddles segment boundaries
	goldenCut   = 6  // chunks pushed before the snapshot (t ≈ 11.1 s, inside segment [10 s, 12 s))
)

type goldenCase struct {
	Snapshot json.RawMessage `json:"snapshot"`
	Windows  []WindowResult  `json:"windows"`
}

var goldenKinds = map[string]Query{"sum": Sum, "groupby-mean": GroupByMean, "histogram": Histogram}

func goldenConfig(q Query) SessionConfig {
	return SessionConfig{
		Query: q, WindowSize: 6 * time.Second, WindowSlide: 2 * time.Second,
		Fraction: 0.5, Seed: 7, HistogramEdges: []float64{0, 50, 100, 150, 250},
	}
}

// goldenStream is 20 s of three strata at 20 events/s.
func goldenStream() []Event {
	rng := rand.New(rand.NewSource(14))
	strata := []string{"a", "b", "c"}
	events := make([]Event, 400)
	for i := range events {
		k := rng.Intn(3)
		events[i] = Event{
			Stratum: strata[k],
			Value:   float64(50*(k+1)) + 20*rng.NormFloat64(),
			Time:    batchBase.Add(time.Duration(i) * 50 * time.Millisecond),
		}
	}
	return events
}

// goldenPush feeds chunks [from, to) of the stream and returns the
// windows they complete.
func goldenPush(t *testing.T, s *Session, events []Event, from, to int) []WindowResult {
	t.Helper()
	var out []WindowResult
	for c := from; c < to && c*goldenChunk < len(events); c++ {
		b := batchOf(events[c*goldenChunk : min((c+1)*goldenChunk, len(events))])
		if err := s.PushBatch(b, 0, b.Len()); err != nil {
			t.Fatal(err)
		}
		b.Release()
		out = append(out, s.Poll()...)
	}
	return out
}

func TestRestoreV1Golden(t *testing.T) {
	refuseFixture(t, "testdata/session_v1.json", 1, "commit 1338931")
}

// testdata/session_v2.json was written the same way at commit ada15d9 —
// the last one whose reservoirs and snapshots held {stratum, value, time}
// rows (snapshot version 2: panes, plus the in-flight segment's rows).
// Version 2 is two formats back too: its refusal names commit b228946,
// the last that upgrades it.
func TestRestoreV2Golden(t *testing.T) {
	refuseFixture(t, "testdata/session_v2.json", 2, "commit b228946")
}

// refuseFixture requires every case of a fixture two or more formats back
// to be refused with an error naming the format, its version, the
// versions read and the last commit that upgrades it, and the fixture to
// be left as it was.
func refuseFixture(t *testing.T, file string, version int, commit string) {
	data, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	var golden map[string]goldenCase
	if err := json.Unmarshal(data, &golden); err != nil {
		t.Fatal(err)
	}
	for name := range goldenKinds {
		gc, ok := golden[name]
		if !ok {
			t.Fatalf("golden has no %q case", name)
		}
		if v := snapshotVersionOf(t, gc.Snapshot); v != version {
			t.Fatalf("%s: fixture is version %d, want %d", name, v, version)
		}
		s, err := RestoreSession(gc.Snapshot)
		if err == nil {
			s.Close()
			t.Fatalf("%s: a version-%d snapshot restored", name, version)
		}
		for _, part := range []string{"session snapshot", fmt.Sprintf("version %d", version), "versions 3 and 4", commit} {
			if !strings.Contains(err.Error(), part) {
				t.Errorf("%s: refusal %q does not name %q", name, err, part)
			}
		}
	}
	if after, err := os.ReadFile(file); err != nil || !bytes.Equal(after, data) {
		t.Errorf("%s changed by the refused restores: %v", file, err)
	}
}

// testdata/session_v3.json was written at commit 9cc0368 — the last one
// whose samplers sized every stratum at an equal share of the budget,
// whatever it could fill — by pushing goldenSkewStream through goldenPush:
// per query kind, the snapshot after skewCut chunks (t ≈ 11.1 s, inside
// segment [10 s, 12 s)). The snapshot carries no per-stratum history, and
// needs none to restore: the in-flight segment keeps its reservoirs, the
// next is sized as a sampler's first interval, and from then on the rare
// stratum's unused slots are spent, so the recorded windows sample 0.2 of
// their items where the writer's sampled 0.14.
const skewCut = 60

// goldenSkewStream is 20 s of three strata at 200 events/s, 80/19/1 %.
func goldenSkewStream() []Event {
	rng := rand.New(rand.NewSource(15))
	strata := []string{"a", "b", "c"}
	events := make([]Event, 4000)
	for i := range events {
		k := 0
		if u := rng.Intn(100); u >= 99 {
			k = 2
		} else if u >= 80 {
			k = 1
		}
		events[i] = Event{
			Stratum: strata[k],
			Value:   float64(50*(k+1)) + 20*rng.NormFloat64(),
			Time:    batchBase.Add(time.Duration(i) * 5 * time.Millisecond),
		}
	}
	return events
}

// testdata/session_v3_seeded.json was written the same way at commit
// b228946, the last whose samplers drew each interval seed from a random
// source, for the sum query at the fraction of session_v3.json: its
// snapshot carries the in-flight segment's interval seed, and its windows
// are the writer's.
// The restored session keeps that seed, so the window the in-flight
// segment closes is the writer's bit for bit. Every later segment draws
// with its derived seed, so the later windows are the writer's in every
// field but the estimates.
func TestRestoreV3Golden(t *testing.T) {
	events := goldenSkewStream()
	exact := make(map[int64]float64) // sum of the values per 2 s segment
	for _, e := range events {
		exact[e.Time.Unix()/2*2] += e.Value
	}
	for file, kinds := range map[string][]string{
		"testdata/session_v3.json":        slices.Collect(maps.Keys(goldenKinds)),
		"testdata/session_v3_seeded.json": {"sum"},
	} {
		data, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		var golden map[string]goldenCase
		if err := json.Unmarshal(data, &golden); err != nil {
			t.Fatal(err)
		}
		for _, name := range kinds {
			gc, ok := golden[name]
			if !ok {
				t.Fatalf("%s has no %q case", file, name)
			}
			label := file + " " + name
			if v := snapshotVersionOf(t, gc.Snapshot); v != 3 {
				t.Fatalf("%s: fixture is version %d, want 3", label, v)
			}
			restored, err := RestoreSession(gc.Snapshot)
			if err != nil {
				t.Fatalf("%s: restore v3: %v", label, err)
			}
			// What was read is what is written, in-flight reservoir
			// capacities included, upgraded to version 4.
			again, err := restored.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			want, seeded := upgradedV3(t, gc.Snapshot)
			if !bytes.Equal(again, want) {
				t.Errorf("%s: the restored session snapshots differently:\n%s\n%s", label, again, want)
			}
			chunks := (len(events) + goldenChunk - 1) / goldenChunk
			got := append(goldenPush(t, restored, events, skewCut, chunks), restored.Close()...)
			if seeded {
				requireSameWindows(t, label+" in-flight window vs the writer's", got[:1], gc.Windows[:1])
				requireSameShape(t, label+" vs the writer's", got, gc.Windows)
			} else {
				requireSameWindows(t, label+" vs recorded", got, gc.Windows)
			}
			for i, w := range got {
				if name != "sum" {
					continue
				}
				var truth float64
				for at := w.Start.Unix(); at < w.End.Unix(); at += 2 {
					truth += exact[at]
				}
				if math.Abs(w.Overall.Value-truth) > w.Overall.Bound {
					t.Errorf("%s window %d: %.0f ± %.0f, exact %.0f", label, i, w.Overall.Value, w.Overall.Bound, truth)
				}
			}
			// The window over [14 s, 20 s) is the first to cover only
			// segments planned from their predecessor's counts.
			if w := got[4]; float64(w.Sampled) < 0.195*float64(w.Items) {
				t.Errorf("%s: window ending %v sampled %d of %d, want 0.2", label, w.End, w.Sampled, w.Items)
			}
		}
	}
}

// upgradedV3 is a version-3 snapshot as a session restored from it writes
// it back: version 4, its random state dropped and its sampler seeded
// with the session's seed, and the in-flight segment's interval seed kept
// — seeded reports it was there — or derived from the seed and the
// segment's start in unix nanos.
func upgradedV3(t *testing.T, snap []byte) (upgraded []byte, seeded bool) {
	t.Helper()
	var st pane.Snapshot
	if err := json.Unmarshal(snap, &st); err != nil {
		t.Fatal(err)
	}
	st.Version, st.SamplerSeed = 4, st.Seed
	if seeded = st.Sampler.Seed != nil; !seeded {
		seed := xrand.At(st.Seed, uint64(st.SegStart.UnixNano()))
		st.Sampler.Seed = &seed
	}
	upgraded, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	return upgraded, seeded
}

// requireSameShape demands what requireSameWindows does but the estimates:
// equal bounds, items, samples, group keys and bucket edges.
func requireSameShape(t *testing.T, label string, got, want []WindowResult) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d windows, want %d", label, len(got), len(want))
	}
	edges := func(bs []HistogramBucket) (e [][2]float64) {
		for _, b := range bs {
			e = append(e, [2]float64{b.Lo, b.Hi})
		}
		return e
	}
	for i, g := range got {
		w := want[i]
		if !g.Start.Equal(w.Start) || !g.End.Equal(w.End) || g.Items != w.Items || g.Sampled != w.Sampled ||
			!slices.Equal(slices.Sorted(maps.Keys(g.Groups)), slices.Sorted(maps.Keys(w.Groups))) ||
			!slices.Equal(edges(g.Buckets), edges(w.Buckets)) {
			t.Errorf("%s: window %d is %+v, want the shape of %+v", label, i, g, w)
		}
	}
}

// testdata/session_v3_latency.json was written at commit 2bf0212, the last
// one whose sessions could cap a segment's sample at a latency target: a
// Sum session of goldenConfig with a 5 ms target, snapshotted after
// goldenCut chunks of goldenStream (mid-segment), and the windows that
// writer's restore produced afterwards. Sessions no longer carry the cap:
// the snapshot's targetLatencyNs is ignored, so the fixture continues to
// the windows of the same bytes without that key, and those are the
// windows recorded.
func TestRestoreTargetLatencySnapshot(t *testing.T) {
	data, err := os.ReadFile("testdata/session_v3_latency.json")
	if err != nil {
		t.Fatal(err)
	}
	var gc goldenCase
	if err := json.Unmarshal(data, &gc); err != nil {
		t.Fatal(err)
	}
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(gc.Snapshot, &fields); err != nil {
		t.Fatal(err)
	}
	if string(fields["targetLatencyNs"]) != "5000000" {
		t.Fatalf("fixture's targetLatencyNs is %s, want 5000000", fields["targetLatencyNs"])
	}
	delete(fields, "targetLatencyNs")
	stripped, err := json.Marshal(fields)
	if err != nil {
		t.Fatal(err)
	}
	events := goldenStream()
	chunks := (len(events) + goldenChunk - 1) / goldenChunk
	run := func(snap []byte) []WindowResult {
		s, err := RestoreSession(snap)
		if err != nil {
			t.Fatal(err)
		}
		return append(goldenPush(t, s, events, goldenCut, chunks), s.Close()...)
	}
	got := run(gc.Snapshot)
	requireSameWindows(t, "latency snapshot vs recorded", got, gc.Windows)
	requireSameWindows(t, "latency snapshot vs without the key", got, run(stripped))
}

func snapshotVersionOf(t *testing.T, snap []byte) int {
	t.Helper()
	var head struct {
		Version int `json:"version"`
	}
	if err := json.Unmarshal(snap, &head); err != nil {
		t.Fatal(err)
	}
	return head.Version
}
