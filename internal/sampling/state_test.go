package sampling

import (
	"encoding/json"
	"testing"

	"streamapprox/internal/stream"
	"streamapprox/internal/xrand"
)

func TestReservoirStateRoundTrip(t *testing.T) {
	rng := xrand.New(1)
	r := NewReservoir(5, rng)
	for _, v := range mkValues(100) {
		r.Add(v)
	}
	st := r.State()
	if st.Capacity != 5 || st.Seen != 100 || len(st.Values) != 5 {
		t.Fatalf("state = %+v", st)
	}

	// Continue both the original and a restored copy with identical RNG
	// streams: they must stay in lockstep.
	seed := rng.Uint64()
	rngA, rngB := xrand.New(seed), xrand.New(seed)
	restored := RestoreReservoir(st, rngB)
	contA := RestoreReservoir(st, rngA) // fresh twin of the original state
	for _, v := range mkValues(500) {
		contA.Add(v)
		restored.Add(v)
	}
	a, b := contA.Values(), restored.Values()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("restored reservoir diverged at %d", i)
		}
	}
}

func TestReservoirStateClampsOversizedValues(t *testing.T) {
	st := ReservoirState{Capacity: 2, Seen: 10, Values: mkValues(5)}
	r := RestoreReservoir(st, xrand.New(2))
	if len(r.Values()) != 2 {
		t.Errorf("restored %d values into capacity 2", len(r.Values()))
	}
}

func TestOASRSStateRoundTripJSON(t *testing.T) {
	rng := xrand.New(3)
	o := NewOASRS(20, nil, rng)
	for _, e := range mkEvents("a", 100) {
		o.Add(e)
	}
	for _, e := range mkEvents("b", 5) {
		o.Add(e)
	}
	st := o.State()

	// The state must survive JSON serialization, since the public
	// Session snapshot uses it that way.
	data, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	var back OASRSState
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	restored := RestoreOASRS(back, nil, xrand.New(4))
	sample := restored.Finish()
	a := sample.Stratum("a")
	if a == nil || a.Count != 100 {
		t.Fatalf("stratum a lost in round trip: %+v", a)
	}
	b := sample.Stratum("b")
	if b == nil || b.Count != 5 || len(b.Values) != 5 || b.Weight != 1 {
		t.Fatalf("stratum b lost in round trip: %+v", b)
	}
}

func TestOASRSStatePreservesExpected(t *testing.T) {
	o := NewOASRS(30, nil, xrand.New(5))
	for _, e := range mkEvents("a", 10) {
		o.Add(e)
	}
	for _, e := range mkEvents("b", 10) {
		o.Add(e)
	}
	_ = o.Finish() // expected = 2 strata
	st := o.State()
	if st.Expected != 2 {
		t.Fatalf("Expected = %d", st.Expected)
	}
	restored := RestoreOASRS(st, nil, xrand.New(6))
	// A new interval's first stratum must get budget/2, not the full
	// budget — the adaptation state survived.
	restored.Add(stream.Event{Stratum: "a", Value: 1})
	for i := 0; i < 100; i++ {
		restored.Add(stream.Event{Stratum: "a", Value: float64(i)})
	}
	sample := restored.Finish()
	if got := len(sample.Stratum("a").Values); got != 15 {
		t.Errorf("restored first-stratum reservoir = %d, want 15 (= 30/2)", got)
	}
}

func TestXrandStateRoundTrip(t *testing.T) {
	r := xrand.New(7)
	_ = r.NormFloat64() // populate the Box-Muller cache
	st := r.State()
	twin := xrand.New(0)
	twin.SetState(st)
	for i := 0; i < 100; i++ {
		if r.NormFloat64() != twin.NormFloat64() {
			t.Fatalf("restored RNG diverged at step %d", i)
		}
	}
}
