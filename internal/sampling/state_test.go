package sampling

import (
	"encoding/json"
	"math"
	"reflect"
	"testing"

	"streamapprox/internal/xrand"
)

// A state taken mid-chain, through JSON, continues to the reservoir the
// uninterrupted one becomes, however the rest arrives.
func TestReservoirStateRoundTrip(t *testing.T) {
	rng := xrand.New(1)
	r := NewReservoir(5, rng)
	r.AddBatch(mkValues(100))
	st := r.State()
	if st.Capacity != 5 || st.Seen != 100 || len(st.Values) != 5 || st.P == 0 {
		t.Fatalf("state = %+v, want a full reservoir with a chain in flight", st)
	}
	data, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	var back ReservoirState
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	twin := xrand.New(0)
	twin.SetState(rng.State())
	restored := RestoreReservoir(back, twin)
	rest := mkValues(600)[100:]
	r.AddBatch(rest)
	addEach(restored, rest)
	if a, b := r.State(), restored.State(); !reflect.DeepEqual(a, b) {
		t.Fatalf("restored reservoir diverged: %+v, uninterrupted %+v", b, a)
	}
}

func TestReservoirStateValidate(t *testing.T) {
	full := mkValues(3)
	for _, tc := range []struct {
		name string
		st   ReservoirState
		ok   bool
	}{
		{"no chain", ReservoirState{Capacity: 3, Seen: 9, Values: full}, true},
		{"underfull", ReservoirState{Capacity: 3, Seen: 2, Values: full[:2]}, true},
		{"chain in flight", ReservoirState{Capacity: 3, Seen: 9, Values: full, U: 0.2, P: 0.5}, true},
		{"fresh chain", ReservoirState{Capacity: 3, Seen: 9, Values: full, U: 0.2, P: 1}, true},
		{"more values than capacity", ReservoirState{Capacity: 2, Seen: 9, Values: full}, false},
		{"more values than seen", ReservoirState{Capacity: 3, Seen: 2, Values: full}, false},
		{"u without p", ReservoirState{Capacity: 3, Seen: 9, Values: full, U: 0.2}, false},
		{"p without u", ReservoirState{Capacity: 3, Seen: 9, Values: full, P: 0.5}, false},
		{"negative u", ReservoirState{Capacity: 3, Seen: 9, Values: full, U: -0.2, P: 0.5}, false},
		{"u at p", ReservoirState{Capacity: 3, Seen: 9, Values: full, U: 0.5, P: 0.5}, false},
		{"p above one", ReservoirState{Capacity: 3, Seen: 9, Values: full, U: 0.2, P: 1.5}, false},
		{"NaN", ReservoirState{Capacity: 3, Seen: 9, Values: full, U: math.NaN(), P: 0.5}, false},
		{"chain before fill", ReservoirState{Capacity: 3, Seen: 2, Values: full[:2], U: 0.2, P: 0.5}, false},
	} {
		if err := tc.st.Validate(); (err == nil) != tc.ok {
			t.Errorf("%s: Validate() = %v", tc.name, err)
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
	feedAll(o, mkEvents("a", 100))
	feedAll(o, mkEvents("b", 5))
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
	feedAll(o, mkEvents("a", 10))
	feedAll(o, mkEvents("b", 10))
	_ = o.Finish() // expected = 2 strata
	st := o.State()
	if st.Expected != 2 {
		t.Fatalf("Expected = %d", st.Expected)
	}
	restored := RestoreOASRS(st, nil, xrand.New(6))
	// A new interval's first stratum must get budget/2, not the full
	// budget — the adaptation state survived.
	feedAll(restored, mkEvents("a", 101))
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
