package streamapprox

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"streamapprox/internal/pane"
	"streamapprox/internal/stream"
)

// These tests pin Session's one push path to its chunking: records pushed
// one per call (Push, a one-record PushBatch) and k per call through
// PushBatch must meet the same segments and the same late drops on any
// input, including late, duplicate-time and zero-time records; and since
// every reservoir's draw depends on its count alone, they sample the same
// items too: equal windows, equal snapshots. Beside them, the edges of
// the unix-nano position: what fires when, and what does not fit.

var batchBase = time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC)

// requireSameRun pushes events one per call through Push into one session
// and through PushBatch in chunks of chunk(i) records into another, polling both
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
	var single, batch []WindowResult
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
		single = append(single, s1.Poll()...)
		batch = append(batch, s2.Poll()...)
		i = j
	}
	if s1.Late() != s2.Late() {
		t.Errorf("late drops: one per call %d, batch %d", s1.Late(), s2.Late())
	}
	snap1, err1 := s1.Snapshot()
	snap2, err2 := s2.Snapshot()
	if !bytes.Equal(snap1, snap2) || err1 != err2 {
		t.Errorf("snapshots differ:\none per call %s (%v)\nbatch        %s (%v)", snap1, err1, snap2, err2)
	}
	single = append(single, s1.Close()...)
	batch = append(batch, s2.Close()...)
	if !reflect.DeepEqual(single, batch) {
		t.Errorf("windows differ:\none per call %+v\nbatch        %+v", single, batch)
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
	// 40 events per one-second segment, single stratum: at fraction 1
	// every segment's budget is unbounded and holds them all.
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
	// Zero-time records before any watermark join the first segment;
	// after a real watermark they must count as late.
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
// one per call and in chunks and requires them to agree. Each input byte
// pair becomes one event: a signed time step (so the fuzzer reaches
// late-drop and duplicate-time interleavings) and a value/stratum
// selector.
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
// snapshot bytes; that snapshot, taken with a reservoir past fill,
// restores and continues to the uninterrupted session's windows.
func TestSampleInvariantToChunking(t *testing.T) {
	events := goldenSkewStream()
	const cut = 2221 // t ≈ 11.1 s: mid-segment, a reservoir past fill
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
			var st pane.Snapshot
			if err := json.Unmarshal(snap, &st); err != nil {
				t.Fatal(err)
			}
			pastFill := 0
			for _, rs := range st.Sampler.Reservoirs {
				if rs.Seen > int64(rs.Capacity) {
					pastFill++
				}
			}
			if pastFill == 0 {
				t.Fatalf("%s: no reservoir past fill at the cut", label)
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

// A window fires when the segment after it starts: a 10 s/5 s session
// fed events at 0–4 s and then one at 100 s serves [0 s, 10 s) beside
// [−5 s, 5 s) at once, not when the segment at 100 s finishes.
func TestGapFiresTheWindowItClosed(t *testing.T) {
	s := NewSession(SessionConfig{WindowSize: 10 * time.Second, WindowSlide: 5 * time.Second, Fraction: 1})
	for i := range 5 {
		if err := s.Push(Event{Stratum: "a", Value: 1, Time: batchBase.Add(time.Duration(i) * time.Second)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Push(Event{Stratum: "a", Value: 1, Time: batchBase.Add(100 * time.Second)}); err != nil {
		t.Fatal(err)
	}
	var got []time.Time
	for _, w := range s.Poll() {
		if w.Items != 5 {
			t.Errorf("window %v holds %d items, want 5", w.Start, w.Items)
		}
		got = append(got, w.Start)
	}
	if want := []time.Time{batchBase.Add(-5 * time.Second), batchBase}; !reflect.DeepEqual(got, want) {
		t.Errorf("Poll after the gap served windows at %v, want %v", got, want)
	}
}

// Push of a time unix nanos cannot hold (before 1678 or after 2262) is an
// error that changes nothing: neither the late count nor the snapshot.
func TestPushRejectsTimeOutsideUnixNanos(t *testing.T) {
	s := NewSession(SessionConfig{WindowSize: 2 * time.Second, WindowSlide: time.Second})
	if err := s.Push(Event{Stratum: "a", Value: 1, Time: batchBase}); err != nil {
		t.Fatal(err)
	}
	before, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	for _, at := range []time.Time{
		time.Date(1600, 1, 1, 0, 0, 0, 0, time.UTC),
		time.Unix(0, math.MinInt64), // the zero-time sentinel's instant
		time.Date(2300, 1, 1, 0, 0, 0, 0, time.UTC),
		time.Date(3000, 1, 1, 0, 0, 0, 0, time.UTC),
	} {
		if err := s.Push(Event{Stratum: "a", Value: 1, Time: at}); err == nil {
			t.Errorf("Push at %v: no error", at)
		}
		after, err := s.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if s.Late() != 0 || !bytes.Equal(after, before) {
			t.Errorf("Push at %v changed the session: late %d, snapshot\n%s\nwant\n%s", at, s.Late(), after, before)
		}
	}
}

// A batch record within one slide of either end of the int64 range is
// windowed when its segment and the segment's end fit in unix nanos, as
// time.Truncate cuts it, and counted late otherwise; no segment bound
// overflows.
func TestPushBatchRecordsAtTheEndsOfUnixNanos(t *testing.T) {
	const slide = 7 * time.Second
	late, windowed := 0, 0
	for _, n := range []int64{
		math.MinInt64 + 1, math.MinInt64 + int64(slide)/3, math.MinInt64 + int64(slide)/2,
		math.MinInt64 + int64(slide) - 1, math.MinInt64 + int64(slide),
		math.MaxInt64 - int64(slide), math.MaxInt64 - int64(slide)/2, math.MaxInt64 - int64(slide)/3, math.MaxInt64,
	} {
		s := NewSession(SessionConfig{WindowSize: 2 * slide, WindowSlide: slide})
		b := NewEventBatch()
		b.Append(b.Intern("a"), 1, n)
		if err := s.PushBatch(b, 0, 1); err != nil {
			t.Fatal(err)
		}
		b.Release()
		cut := time.Unix(0, n).Truncate(slide)
		end := cut.Add(slide)
		fits := cut.UnixNano() != math.MinInt64 && time.Unix(0, cut.UnixNano()).Equal(cut) && time.Unix(0, end.UnixNano()).Equal(end)
		seg := s.ps.State().SegStart
		switch {
		case !fits && (s.Late() != 1 || !seg.IsZero()):
			t.Errorf("record at %d, segment outside unix nanos: late %d, segment at %v", n, s.Late(), seg)
		case fits && (s.Late() != 0 || !seg.Equal(cut)):
			t.Errorf("record at %d: late %d, segment at %v, want %v", n, s.Late(), seg, cut)
		}
		if fits {
			windowed++
		} else {
			late++
		}
	}
	if late == 0 || windowed == 0 {
		t.Fatalf("%d records late, %d windowed: the cases miss a side", late, windowed)
	}
}

// Segments are cut where time.Truncate cuts, from the zero time, which is
// not where the Unix epoch's multiples of a 7 s or 11 s slide fall.
func TestSegmentsCutWhereTruncateCuts(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, slide := range []time.Duration{300 * time.Millisecond, time.Second, 3 * time.Second, 7 * time.Second, 11 * time.Second, 13 * time.Millisecond, 24 * time.Hour} {
		s := NewSession(SessionConfig{WindowSlide: slide})
		for range 2000 {
			n := rng.Int63n(1<<62) - 1<<61
			seg, ok := s.ps.SegmentOf(n)
			if want := time.Unix(0, n).Truncate(slide).UnixNano(); !ok || seg != want {
				t.Fatalf("slide %v: segment of %d is %d (ok %v), time.Truncate cuts at %d", slide, n, seg, ok, want)
			}
		}
	}
}

// Zero-time records that arrive before any watermark join the first
// segment's sample, pushed one per call or in one batch.
func TestZeroTimeHeadJoinsFirstSegment(t *testing.T) {
	events := []Event{
		{Stratum: "a", Value: 1},
		{Stratum: "b", Value: 2},
		{Stratum: "a", Value: 10, Time: batchBase},
		{Stratum: "a", Value: 20, Time: batchBase.Add(time.Second)},
		{Stratum: "a", Value: 100, Time: batchBase.Add(5 * time.Second)},
	}
	cfg := SessionConfig{WindowSize: 5 * time.Second, WindowSlide: 5 * time.Second, Fraction: 1}
	one, batch := NewSession(cfg), NewSession(cfg)
	for _, e := range events {
		if err := one.Push(e); err != nil {
			t.Fatal(err)
		}
	}
	b := batchOf(events)
	if err := batch.PushBatch(b, 0, b.Len()); err != nil {
		t.Fatal(err)
	}
	b.Release()
	for name, s := range map[string]*Session{"Push": one, "PushBatch": batch} {
		wins := s.Close()
		if len(wins) != 2 || !wins[0].Start.Equal(batchBase) || wins[0].Items != 4 || wins[0].Overall.Value != 33 {
			t.Errorf("%s: windows %+v, want the first at %v with 4 items summing to 33", name, wins, batchBase)
		}
	}
}

// A head of zero-time records is counted where it is sampled: with the
// first pane's records. The second pane's budget is the fraction of both,
// pushed one per call or in one batch.
func TestZeroTimeHeadBudgetsTheSecondPane(t *testing.T) {
	const head, perPane = 50, 300
	var events []Event
	for i := range head {
		events = append(events, Event{Stratum: "a", Value: float64(i)})
	}
	for pane := range 3 {
		for i := range perPane {
			at := batchBase.Add(time.Duration(pane)*time.Second + time.Duration(i)*time.Second/perPane)
			events = append(events, Event{Stratum: "a", Value: float64(i), Time: at})
		}
	}
	cfg := SessionConfig{WindowSize: time.Second, WindowSlide: time.Second, Fraction: 0.1}
	one, batch := NewSession(cfg), NewSession(cfg)
	for _, e := range events {
		if err := one.Push(e); err != nil {
			t.Fatal(err)
		}
	}
	b := batchOf(events)
	if err := batch.PushBatch(b, 0, b.Len()); err != nil {
		t.Fatal(err)
	}
	b.Release()
	for name, s := range map[string]*Session{"Push": one, "PushBatch": batch} {
		wins := s.Close()
		if len(wins) != 3 || wins[0].Items != head+perPane || wins[1].Items != perPane {
			t.Fatalf("%s: windows %+v, want 3 of %d, %d and %d items", name, wins, head+perPane, perPane, perPane)
		}
		// One stratum: a pane samples its whole budget.
		if want := int(cfg.Fraction * (head + perPane)); wins[1].Sampled != want {
			t.Errorf("%s: the second pane sampled %d, want %d: the fraction of the first pane's %d records and the head's %d",
				name, wins[1].Sampled, want, perPane, head)
		}
	}
}
