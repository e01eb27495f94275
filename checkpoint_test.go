package streamapprox

import (
	"encoding/json"
	"math"
	"testing"
	"time"

	"streamapprox/internal/pane"
	"streamapprox/internal/sampling"
)

func TestSnapshotRestoreMidStream(t *testing.T) {
	events := testEvents(t, 30)
	half := len(events) / 2

	// Reference: one uninterrupted session.
	ref := NewSession(SessionConfig{Fraction: 0.5, Seed: 42})
	for _, e := range events {
		if err := ref.Push(e); err != nil {
			t.Fatal(err)
		}
	}
	want := ref.Close()

	// Checkpointed: push half, snapshot, restore, push the rest.
	a := NewSession(SessionConfig{Fraction: 0.5, Seed: 42})
	for _, e := range events[:half] {
		if err := a.Push(e); err != nil {
			t.Fatal(err)
		}
	}
	early := a.Poll()
	snap, err := a.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	b, err := RestoreSession(snap)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range events[half:] {
		if err := b.Push(e); err != nil {
			t.Fatal(err)
		}
	}
	got := append(early, b.Close()...)

	if len(got) != len(want) {
		t.Fatalf("restored run produced %d windows, reference %d", len(got), len(want))
	}
	for i := range got {
		if !got[i].Start.Equal(want[i].Start) {
			t.Fatalf("window %d start %v vs %v", i, got[i].Start, want[i].Start)
		}
		// Identical RNG state means bit-identical estimates.
		if got[i].Overall.Value != want[i].Overall.Value {
			t.Errorf("window %d: restored %v, reference %v",
				i, got[i].Overall.Value, want[i].Overall.Value)
		}
		if got[i].Items != want[i].Items {
			t.Errorf("window %d items: %d vs %d", i, got[i].Items, want[i].Items)
		}
	}
}

func TestSnapshotPreservesWatermarkAndLateness(t *testing.T) {
	s := NewSession(SessionConfig{Seed: 1})
	base := time.Date(2017, 12, 11, 0, 0, 0, 0, time.UTC)
	_ = s.Push(Event{Stratum: "a", Value: 1, Time: base.Add(time.Minute)})
	_ = s.Push(Event{Stratum: "a", Value: 1, Time: base}) // late
	snap, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	r, err := RestoreSession(snap)
	if err != nil {
		t.Fatal(err)
	}
	if r.Late() != 1 {
		t.Errorf("restored Late = %d, want 1", r.Late())
	}
	// A late event after restore must still be dropped.
	_ = r.Push(Event{Stratum: "a", Value: 1, Time: base})
	if r.Late() != 2 {
		t.Errorf("watermark lost in snapshot: Late = %d, want 2", r.Late())
	}
}

func TestSnapshotPreservesAdaptiveFraction(t *testing.T) {
	s := NewSession(SessionConfig{Fraction: 0.05, TargetError: 1e-9, Seed: 2})
	for _, e := range testEvents(t, 20) {
		_ = s.Push(e)
	}
	_ = s.Poll()
	grown := s.Fraction()
	if grown <= 0.05 {
		t.Fatalf("precondition: fraction did not grow (%v)", grown)
	}
	snap, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	r, err := RestoreSession(snap)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.Fraction()-grown) > 1e-12 {
		t.Errorf("restored fraction %v, want %v", r.Fraction(), grown)
	}
}

func TestRestoreRejectsGarbage(t *testing.T) {
	if _, err := RestoreSession([]byte("not json")); err == nil {
		t.Error("garbage snapshot accepted")
	}
	if _, err := RestoreSession([]byte(`{"version": 999}`)); err == nil {
		t.Error("future version accepted")
	}
}

func TestSnapshotCarriesPendingResults(t *testing.T) {
	s := NewSession(SessionConfig{Fraction: 0.5, Seed: 4})
	for _, e := range testEvents(t, 20) {
		_ = s.Push(e)
	}
	// Do NOT poll: ready results must survive the snapshot.
	snap, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	r, err := RestoreSession(snap)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Poll(); len(got) == 0 {
		t.Error("ready window results lost in snapshot")
	}
}

// TestRestoreRejectsCorruptReservoirs: a reservoir no sampler could have
// written — more values than its capacity or than it saw, or fewer than
// it filled — fails the restore instead of being truncated or running
// silently.
func TestRestoreRejectsCorruptReservoirs(t *testing.T) {
	cfg := goldenConfig(Sum)
	cfg.Fraction = 0.2
	s := NewSession(cfg)
	for _, e := range goldenSkewStream()[:2221] {
		if err := s.Push(e); err != nil {
			t.Fatal(err)
		}
	}
	snap, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	var st pane.Snapshot
	if err := json.Unmarshal(snap, &st); err != nil {
		t.Fatal(err)
	}
	key := ""
	for k, rs := range st.Sampler.Reservoirs {
		if rs.Seen > int64(rs.Capacity) {
			key = k
		}
	}
	if key == "" {
		t.Fatal("precondition: no reservoir past fill")
	}
	for _, tc := range []struct {
		name    string
		corrupt func(rs *sampling.ReservoirState)
		ok      bool
	}{
		{"as written", func(*sampling.ReservoirState) {}, true},
		{"more values than capacity", func(rs *sampling.ReservoirState) { rs.Capacity-- }, false},
		{"more values than seen", func(rs *sampling.ReservoirState) { rs.Seen = int64(len(rs.Values)) - 1 }, false},
		{"fewer values than capacity", func(rs *sampling.ReservoirState) { rs.Values = rs.Values[1:] }, false},
		{"no capacity", func(rs *sampling.ReservoirState) { rs.Capacity, rs.Values = 0, nil }, false},
	} {
		var bad pane.Snapshot
		if err := json.Unmarshal(snap, &bad); err != nil {
			t.Fatal(err)
		}
		rs := bad.Sampler.Reservoirs[key]
		tc.corrupt(&rs)
		bad.Sampler.Reservoirs[key] = rs
		data, err := json.Marshal(bad)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := RestoreSession(data); (err == nil) != tc.ok {
			t.Errorf("%s: RestoreSession error = %v", tc.name, err)
		}
	}
}
