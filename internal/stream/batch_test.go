package stream

import (
	"math/rand"
	"testing"
	"time"
)

func TestEventBatchInternDedupes(t *testing.T) {
	b := GetEventBatch()
	defer b.Release()
	a1 := b.Intern("alpha")
	b1 := b.Intern("beta")
	a2 := b.Intern("alpha")
	a3 := b.InternBytes([]byte("alpha"))
	g1 := b.InternBytes([]byte("gamma"))
	if a1 != a2 || a1 != a3 {
		t.Errorf("alpha interned to %d, %d, %d — want one ID", a1, a2, a3)
	}
	if a1 == b1 || b1 == g1 {
		t.Error("distinct keys shared a dictionary ID")
	}
	if len(b.Dict) != 3 {
		t.Errorf("Dict has %d entries, want 3: %v", len(b.Dict), b.Dict)
	}
	if b.Dict[a1] != "alpha" || b.Dict[b1] != "beta" || b.Dict[g1] != "gamma" {
		t.Errorf("Dict order wrong: %v", b.Dict)
	}
}

func TestEventBatchAppendEventRoundTrip(t *testing.T) {
	b := GetEventBatch()
	defer b.Release()
	events := []Event{
		ev("tcp", 1.5, 0),
		ev("udp", -2, 10),
		{Stratum: "tcp", Value: 3}, // zero time must survive the round trip
	}
	for _, e := range events {
		b.AppendEvent(e)
	}
	if b.Len() != len(events) {
		t.Fatalf("Len = %d, want %d", b.Len(), len(events))
	}
	for i, e := range events {
		if got := b.EventAt(i); got != e {
			t.Errorf("EventAt(%d) = %+v, want %+v", i, got, e)
		}
	}
	got := b.Events()
	for i, e := range events {
		if got[i] != e {
			t.Errorf("Events()[%d] = %+v, want %+v", i, got[i], e)
		}
	}
}

func TestTimeNanosSentinel(t *testing.T) {
	if TimeToNanos(time.Time{}) != ZeroTimeNanos {
		t.Error("zero time did not map to the sentinel")
	}
	if !TimeFromNanos(ZeroTimeNanos).IsZero() {
		t.Error("sentinel did not map back to the zero time")
	}
	now := time.Unix(0, 1712345678901234567).UTC()
	if got := TimeFromNanos(TimeToNanos(now)); !got.Equal(now) {
		t.Errorf("round trip: got %v, want %v", got, now)
	}
}

func TestEventBatchMaxTime(t *testing.T) {
	b := GetEventBatch()
	defer b.Release()
	b.AppendEvent(ev("a", 1, 50))
	b.AppendEvent(Event{Stratum: "a", Value: 2}) // zero time never wins
	b.AppendEvent(ev("a", 3, 20))
	want := ev("", 0, 50).Time
	if got := b.MaxTime(0, b.Len()); !got.Equal(want) {
		t.Errorf("MaxTime = %v, want %v", got, want)
	}
	if got := b.MaxTime(1, 2); !got.IsZero() {
		t.Errorf("MaxTime over only zero times = %v, want zero", got)
	}
}

func TestEventBatchSortByTime(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		b := GetEventBatch()
		n := rng.Intn(200)
		rows := make([]Event, n)
		for i := range rows {
			// Coarse times force duplicates, exercising stability.
			rows[i] = ev("s"+string(rune('a'+rng.Intn(3))), float64(i), rng.Intn(8))
			b.AppendEvent(rows[i])
		}
		b.SortByTime()
		if !b.TimeOrdered() {
			t.Fatalf("trial %d: batch not time-ordered after SortByTime", trial)
		}
		// A stable sort of the row form is the spec; all three columns
		// must move together.
		want := make([]Event, n)
		copy(want, rows)
		stableSortEvents(want)
		for i := range want {
			if got := b.EventAt(i); got != want[i] {
				t.Fatalf("trial %d row %d: got %+v, want %+v", trial, i, got, want[i])
			}
		}
		b.Release()
	}
}

// Once a batch has sorted a round of the size, sorting another allocates
// nothing: the permutation and the gathered columns live on the batch.
func TestEventBatchSortByTimeAllocatesNothingWhenWarm(t *testing.T) {
	b := GetEventBatch()
	defer b.Release()
	rng := rand.New(rand.NewSource(12))
	id := b.Intern("a")
	fill := func() {
		b.Strata, b.Values, b.Times = b.Strata[:0], b.Values[:0], b.Times[:0]
		for i := 0; i < 1000; i++ {
			b.Append(id, float64(i), int64(rng.Intn(64)))
		}
	}
	// Two warm-up rounds: the columns and their spares trade places on
	// every sort, so both sets must have reached the size.
	for i := 0; i < 2; i++ {
		fill()
		b.SortByTime()
	}
	if allocs := testing.AllocsPerRun(20, func() {
		fill()
		b.SortByTime()
		if !b.TimeOrdered() {
			t.Fatal("batch not time-ordered after SortByTime")
		}
	}); allocs != 0 {
		t.Errorf("%.0f allocations per sorted round", allocs)
	}
}

// stableSortEvents is an insertion sort — trivially stable, fine at
// test sizes — used as the oracle for SortByTime.
func stableSortEvents(rows []Event) {
	for i := 1; i < len(rows); i++ {
		for j := i; j > 0 && rows[j].Time.Before(rows[j-1].Time); j-- {
			rows[j], rows[j-1] = rows[j-1], rows[j]
		}
	}
}

func TestEventBatchPoolReuseStartsEmpty(t *testing.T) {
	b := GetEventBatch()
	b.AppendEvent(ev("a", 1, 0))
	b.Base = 42
	b.Release()
	// Whether or not the pool hands back the same batch, it must start
	// empty with a fresh dictionary.
	b2 := GetEventBatch()
	defer b2.Release()
	if b2.Len() != 0 || len(b2.Dict) != 0 || b2.Base != 0 {
		t.Errorf("pooled batch not reset: len=%d dict=%v base=%d", b2.Len(), b2.Dict, b2.Base)
	}
	if got := b2.Intern("zzz"); got != 0 {
		t.Errorf("stale intern table: Intern on fresh batch returned %d, want 0", got)
	}
}
