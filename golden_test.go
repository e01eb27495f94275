package streamapprox

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"
)

// testdata/session_v1.json was written at commit 82a61bd — the last one
// whose sessions kept sample rows per pending window (snapshot version
// 1) — by pushing goldenStream through goldenPush: per query kind, the
// snapshot taken after goldenCut chunks (mid-segment, two windows
// pending) and every window that run produced afterwards. Version 1 is
// several formats back: its restore is refused with an error naming the
// format, its version, the versions read and the last commit that
// upgrades it, and the fixture is left as it was. The version-2 and
// version-3 fixtures are refused the same way.

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
// — a map of cases by name, or one case — to be refused with an error
// naming the format, its version, the versions read and the last commit
// that upgrades it, and the fixture to be left as it was.
func refuseFixture(t *testing.T, file string, version int, commit string) {
	data, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	var golden map[string]goldenCase
	if err := json.Unmarshal(data, &golden); err != nil {
		var one goldenCase
		if err := json.Unmarshal(data, &one); err != nil {
			t.Fatal(err)
		}
		golden = map[string]goldenCase{file: one}
	}
	if len(golden) == 0 {
		t.Fatalf("%s holds no case", file)
	}
	for name, gc := range golden {
		if v := snapshotVersionOf(t, gc.Snapshot); v != version {
			t.Fatalf("%s %s: fixture is version %d, want %d", file, name, v, version)
		}
		s, err := RestoreSession(gc.Snapshot)
		if err == nil {
			s.Close()
			t.Fatalf("%s %s: a version-%d snapshot restored", file, name, version)
		}
		for _, part := range []string{"session snapshot", fmt.Sprintf("version %d", version), "versions 4 and 5", commit} {
			if !strings.Contains(err.Error(), part) {
				t.Errorf("%s %s: refusal %q does not name %q", file, name, err, part)
			}
		}
	}
	if after, err := os.ReadFile(file); err != nil || !bytes.Equal(after, data) {
		t.Errorf("%s changed by the refused restores: %v", file, err)
	}
}

// testdata/session_v3.json was written at commit 9cc0368, the last whose
// samplers sized every stratum at an equal share of the budget, and
// session_v3_seeded.json at commit b228946, the last whose samplers drew
// each interval seed from a random source. Version 3 is two formats back.
func TestRestoreV3Golden(t *testing.T) {
	for _, file := range []string{"testdata/session_v3.json", "testdata/session_v3_seeded.json"} {
		refuseFixture(t, file, 3, "commit bf6c4fd")
	}
}

// testdata/session_v3_latency.json was written at commit 2bf0212, the last
// one whose sessions could cap a segment's sample at a latency target: a
// Sum session with a 5 ms target. Its targetLatencyNs key does not save it
// from the refusal every version-3 snapshot meets.
func TestRestoreTargetLatencySnapshot(t *testing.T) {
	const file = "testdata/session_v3_latency.json"
	data, err := os.ReadFile(file)
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
	refuseFixture(t, file, 3, "commit bf6c4fd")
}

// skewCut is the chunk of goldenSkewStream a snapshot is taken after:
// t ≈ 11.1 s, inside segment [10 s, 12 s).
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

// zeroHeadStream is goldenSkewStream after a head of its first 100 events
// at the zero time; zeroHeadCut chunks of it are the head and the first
// 122 records of the first pane.
func zeroHeadStream() []Event {
	events := goldenSkewStream()
	head := make([]Event, 100)
	for i := range head {
		head[i] = events[i]
		head[i].Time = time.Time{}
	}
	return append(head, events...)
}

const zeroHeadCut = 6

// testdata/session_v4.json was written at commit bf6c4fd, the last whose
// snapshots also held each sampler's arrival counts, stratum order and
// interval seed, by pushing goldenSkewStream through goldenPush with
// goldenConfig: per query kind, the snapshot after skewCut chunks — mid-
// pane, stratum a's reservoir past fill, the previous pane's counts held
// — and every window that uninterrupted session served after it. Its
// zero-head case is a Sum session fed zeroHeadStream, snapshotted after
// zeroHeadCut chunks.
//
// A restored session writes the snapshot back as version 5, the derived
// fields dropped and nothing else changed, and serves the writer's
// windows bit for bit. The zero-head case does not: its writer budgeted
// the second pane by the first pane's records alone, without the head it
// sampled with them, where the restored session counts the head, as an
// uninterrupted session of this build does.
func TestRestoreV4Golden(t *testing.T) {
	data, err := os.ReadFile("testdata/session_v4.json")
	if err != nil {
		t.Fatal(err)
	}
	var golden map[string]goldenCase
	if err := json.Unmarshal(data, &golden); err != nil {
		t.Fatal(err)
	}
	streams := map[string][]Event{"zero-head": zeroHeadStream()}
	cuts := map[string]int{"zero-head": zeroHeadCut}
	for name := range goldenKinds {
		streams[name], cuts[name] = goldenSkewStream(), skewCut
	}
	for name, events := range streams {
		gc, ok := golden[name]
		if !ok {
			t.Fatalf("session_v4.json has no %q case", name)
		}
		if v := snapshotVersionOf(t, gc.Snapshot); v != 4 {
			t.Fatalf("%s: fixture is version %d, want 4", name, v)
		}
		restored, err := RestoreSession(gc.Snapshot)
		if err != nil {
			t.Fatalf("%s: restore v4: %v", name, err)
		}
		again, err := restored.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if got, want := jsonTree(t, again), withoutDerived(t, gc.Snapshot); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: the restored session snapshots as\n%v\nwant\n%v", name, got, want)
		}
		chunks := (len(events) + goldenChunk - 1) / goldenChunk
		got := append(goldenPush(t, restored, events, cuts[name], chunks), restored.Close()...)
		want := gc.Windows
		if name == "zero-head" {
			s := NewSession(goldenConfig(Sum))
			goldenPush(t, s, events, 0, cuts[name])
			want = append(goldenPush(t, s, events, cuts[name], chunks), s.Close()...)
			if g, w := windowsJSON(t, got), windowsJSON(t, gc.Windows); bytes.Equal(g, w) {
				t.Errorf("%s: the restored session serves the writer's windows, budgeted without the head", name)
			}
		}
		if g, w := windowsJSON(t, got), windowsJSON(t, want); !bytes.Equal(g, w) {
			t.Errorf("%s: the restored session serves\n%s\nwant\n%s", name, g, w)
		}
	}
}

// jsonTree decodes JSON into maps, slices and exact numbers.
func jsonTree(t *testing.T, data []byte) any {
	t.Helper()
	d := json.NewDecoder(bytes.NewReader(data))
	d.UseNumber()
	var v any
	if err := d.Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

// withoutDerived is a version-4 snapshot as version 5 holds it: without
// the sampler's arrival counts and the OASRS sampler's stratum count,
// order and interval seed.
func withoutDerived(t *testing.T, snap []byte) any {
	t.Helper()
	st := jsonTree(t, snap).(map[string]any)
	st["version"] = json.Number("5")
	delete(st, "segCount")
	delete(st, "lastCount")
	if o, ok := st["sampler"].(map[string]any); ok {
		delete(o, "expected")
		delete(o, "order")
		delete(o, "intervalSeed")
	}
	return st
}

func windowsJSON(t *testing.T, ws []WindowResult) []byte {
	t.Helper()
	data, err := json.Marshal(ws)
	if err != nil {
		t.Fatal(err)
	}
	return data
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
