package streamapprox

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"streamapprox/internal/stream"
)

// These tests pin Session.PushBatch to Push: the vectorized
// window/stratum run segmentation must make exactly the scalar path's
// decisions — same segments, same late drops — on any input, including
// late, duplicate-time, and zero-time records; and since every reservoir
// keeps its skip chain across calls, the two paths sample the same items
// too: equal windows, equal snapshots.

var batchBase = time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC)

// requireSameRun pushes events through Push into one session and through
// PushBatch in chunks of chunk(i) records into another, polling both
// after every chunk, and requires equal windows, late drops and — taken
// before Close — snapshots.
func requireSameRun(t *testing.T, cfg SessionConfig, events []Event, chunk func(i int) int) {
	t.Helper()
	s1 := NewSession(cfg)
	for _, e := range events {
		if err := s1.Push(e); err != nil {
			t.Fatalf("Push: %v", err)
		}
	}
	s2 := NewSession(cfg)
	var scalar, batch []WindowResult
	for i := 0; i < len(events); {
		j := min(max(i+chunk(i), i+1), len(events))
		b := NewEventBatch()
		for _, e := range events[i:j] {
			b.AppendEvent(stream.Event(e))
		}
		if err := s2.PushBatch(b, 0, b.Len()); err != nil {
			t.Fatalf("PushBatch: %v", err)
		}
		b.Release()
		scalar = append(scalar, s1.Poll()...)
		batch = append(batch, s2.Poll()...)
		i = j
	}
	if s1.Late() != s2.Late() {
		t.Errorf("late drops: scalar %d, batch %d", s1.Late(), s2.Late())
	}
	snap1, err1 := s1.Snapshot()
	snap2, err2 := s2.Snapshot()
	if !bytes.Equal(snap1, snap2) || err1 != err2 {
		t.Errorf("snapshots differ:\nscalar %s (%v)\nbatch  %s (%v)", snap1, err1, snap2, err2)
	}
	scalar = append(scalar, s1.Close()...)
	batch = append(batch, s2.Close()...)
	if !reflect.DeepEqual(scalar, batch) {
		t.Errorf("windows differ:\nscalar %+v\nbatch  %+v", scalar, batch)
	}
}

func randomEvents(rng *rand.Rand, n int) []Event {
	strata := []string{"a", "b", "c"}
	events := make([]Event, 0, n)
	t := batchBase
	for i := 0; i < n; i++ {
		// Mostly forward steps, occasional repeats and late stragglers.
		switch rng.Intn(10) {
		case 0:
			// late: behind the high-water mark
			events = append(events, Event{
				Stratum: strata[rng.Intn(3)], Value: float64(rng.Intn(100)),
				Time: t.Add(-time.Duration(1+rng.Intn(3000)) * time.Millisecond),
			})
			continue
		case 1:
			// duplicate timestamp
		default:
			t = t.Add(time.Duration(rng.Intn(400)) * time.Millisecond)
		}
		events = append(events, Event{
			Stratum: strata[rng.Intn(3)], Value: float64(rng.Intn(100)), Time: t,
		})
	}
	return events
}

func TestPushBatchMatchesPushStructure(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cfg := SessionConfig{WindowSize: 2 * time.Second, WindowSlide: time.Second, Fraction: 0.5}
	for trial := 0; trial < 30; trial++ {
		events := randomEvents(rng, 1500)
		requireSameRun(t, cfg, events, func(int) int { return 1 + rng.Intn(300) })
	}
}

// TestPushBatchExactWhenNothingEvicted keeps every segment under the
// sampler's budget, so no reservoir ever draws a number.
func TestPushBatchExactWhenNothingEvicted(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	cfg := SessionConfig{
		WindowSize: 2 * time.Second, WindowSlide: time.Second,
		Fraction: 1, Query: Mean, Seed: 7,
	}
	// 40 events per one-second segment, single stratum: the bootstrap
	// budget (64) and every lastCount-derived budget (40) hold them all.
	var events []Event
	for seg := 0; seg < 20; seg++ {
		for k := 0; k < 40; k++ {
			events = append(events, Event{
				Stratum: "s", Value: rng.Float64() * 100,
				Time: batchBase.Add(time.Duration(seg)*time.Second + time.Duration(k*25)*time.Millisecond),
			})
		}
	}
	requireSameRun(t, cfg, events, func(int) int { return 1 + rng.Intn(97) })
}

func TestPushBatchZeroTimeEvents(t *testing.T) {
	cfg := SessionConfig{WindowSize: 2 * time.Second, WindowSlide: time.Second}
	// Zero-time records before any watermark exercise the sentinel
	// fallback; after a real watermark they must count as late.
	events := []Event{
		{Stratum: "a", Value: 1},
		{Stratum: "a", Value: 2},
		{Stratum: "a", Value: 3, Time: batchBase},
		{Stratum: "a", Value: 4},
		{Stratum: "a", Value: 5, Time: batchBase.Add(time.Second)},
	}
	requireSameRun(t, cfg, events, func(int) int { return len(events) })
}

func TestPushBatchRangeClamping(t *testing.T) {
	s := NewSession(SessionConfig{})
	b := NewEventBatch()
	defer b.Release()
	b.AppendEvent(stream.Event{Stratum: "a", Value: 1, Time: batchBase})
	if err := s.PushBatch(b, -5, 99); err != nil {
		t.Fatalf("PushBatch with out-of-range bounds: %v", err)
	}
	got := s.Close()
	if len(got) == 0 {
		t.Fatal("clamped push lost the record: no windows")
	}
	for _, wr := range got {
		// The default 10s/5s window puts the one segment in two
		// overlapping windows; each must carry the single record.
		if wr.Items != 1 {
			t.Fatalf("clamped push lost the record: %+v", got)
		}
	}
}

func TestPushBatchClosedSession(t *testing.T) {
	s := NewSession(SessionConfig{})
	s.Close()
	b := NewEventBatch()
	defer b.Release()
	b.AppendEvent(stream.Event{Stratum: "a", Value: 1, Time: batchBase})
	if err := s.PushBatch(b, 0, b.Len()); err != ErrClosedSession {
		t.Fatalf("PushBatch on closed session: err = %v, want ErrClosedSession", err)
	}
}

// FuzzPushBatchSegmentation feeds arbitrary byte-derived event streams
// through both paths and requires them to agree. Each input byte pair becomes one event: a signed time step (so
// the fuzzer reaches late-drop and duplicate-time interleavings) and a
// value/stratum selector.
func FuzzPushBatchSegmentation(f *testing.F) {
	f.Add([]byte{0, 0, 10, 1, 200, 2, 10, 3}, uint8(3))
	f.Add([]byte{255, 0, 1, 1, 255, 2, 128, 3, 0, 4}, uint8(1))
	f.Add([]byte{50, 50, 50, 50, 50, 50}, uint8(7))
	f.Fuzz(func(t *testing.T, data []byte, chunkSeed uint8) {
		if len(data) > 4096 {
			data = data[:4096]
		}
		strata := []string{"a", "b", "c", "d"}
		var events []Event
		tm := batchBase
		for i := 0; i+1 < len(data); i += 2 {
			step := time.Duration(int(data[i])-96) * 37 * time.Millisecond
			et := tm.Add(step)
			if et.After(tm) {
				tm = et
			}
			events = append(events, Event{
				Stratum: strata[int(data[i+1])%len(strata)],
				Value:   float64(data[i+1]),
				Time:    et,
			})
		}
		cfg := SessionConfig{WindowSize: 2 * time.Second, WindowSlide: time.Second, Fraction: 0.4}
		chunk := 1 + int(chunkSeed)%64
		requireSameRun(t, cfg, events, func(int) int { return chunk })
	})
}

// TestSampleInvariantToChunking: a session's sample is a function of its
// records and its seed, not of how they were batched. The skew stream
// pushed record by record through Push and in batches of 1, 7, 67 and
// 1000 through PushBatch gives the same windows and, at the cut, the same
// snapshot bytes; that snapshot, taken with skip chains in flight,
// restores and continues to the uninterrupted session's windows.
func TestSampleInvariantToChunking(t *testing.T) {
	events := goldenSkewStream()
	const cut = 2221 // t ≈ 11.1 s: mid-segment, a skip chain in flight
	push := func(s *Session, evs []Event, chunk int) []WindowResult {
		for i := 0; i < len(evs); i += max(chunk, 1) {
			if chunk == 0 {
				if err := s.Push(evs[i]); err != nil {
					t.Fatal(err)
				}
				continue
			}
			b := batchOf(evs[i:min(i+chunk, len(evs))])
			if err := s.PushBatch(b, 0, b.Len()); err != nil {
				t.Fatal(err)
			}
			b.Release()
		}
		return s.Poll()
	}
	for name, q := range goldenKinds {
		cfg := goldenConfig(q)
		cfg.Fraction = 0.2
		var wantWins []WindowResult
		var wantSnap []byte
		for _, chunk := range []int{0, 1, 7, 67, 1000} { // 0: Push
			label := fmt.Sprintf("%s in batches of %d", name, chunk)
			s := NewSession(cfg)
			wins := push(s, events[:cut], chunk)
			snap, err := s.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			var st sessionState
			if err := json.Unmarshal(snap, &st); err != nil {
				t.Fatal(err)
			}
			inFlight := 0
			for _, rs := range st.Sampler.Reservoirs {
				if rs.P != 0 {
					inFlight++
				}
			}
			if inFlight == 0 {
				t.Fatalf("%s: no skip chain in flight at the cut", label)
			}
			resumed, err := RestoreSession(snap)
			if err != nil {
				t.Fatal(err)
			}
			rest := append(push(s, events[cut:], chunk), s.Close()...)
			wins = append(wins, rest...)
			if got := append(push(resumed, events[cut:], chunk), resumed.Close()...); !reflect.DeepEqual(got, rest) {
				t.Errorf("%s: restored at the cut, the session continues to\n%+v\nnot\n%+v", label, got, rest)
			}
			if chunk == 0 {
				wantWins, wantSnap = wins, snap
				continue
			}
			if !bytes.Equal(snap, wantSnap) {
				t.Errorf("%s: snapshot at the cut differs from Push's:\n%s\n%s", label, snap, wantSnap)
			}
			if !reflect.DeepEqual(wins, wantWins) {
				t.Errorf("%s: windows differ from Push's:\n%+v\n%+v", label, wins, wantWins)
			}
		}
	}
}
