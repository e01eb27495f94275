package sampling

import (
	"encoding/json"
	"reflect"
	"testing"

	"streamapprox/internal/xrand"
)

// A state taken past fill, through JSON, restored under the reservoir's
// key, continues to the reservoir the uninterrupted one becomes, however
// the rest arrives.
func TestReservoirStateRoundTrip(t *testing.T) {
	r := NewReservoir(5, xrand.New(1))
	r.AddBatch(mkValues(100))
	st := r.State()
	if st.Capacity != 5 || st.Seen != 100 || len(st.Values) != 5 {
		t.Fatalf("state = %+v, want a full reservoir", st)
	}
	data, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	var back ReservoirState
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	restored := RestoreReservoir(back, r.key)
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
		{"full", ReservoirState{Capacity: 3, Seen: 9, Values: full}, true},
		{"just full", ReservoirState{Capacity: 3, Seen: 3, Values: full}, true},
		{"underfull", ReservoirState{Capacity: 3, Seen: 2, Values: full[:2]}, true},
		{"empty", ReservoirState{Capacity: 3}, true},
		{"more values than capacity", ReservoirState{Capacity: 2, Seen: 9, Values: full}, false},
		{"more values than seen", ReservoirState{Capacity: 3, Seen: 2, Values: full}, false},
		{"fewer values than seen", ReservoirState{Capacity: 3, Seen: 2, Values: full[:1]}, false},
		{"fewer values than capacity", ReservoirState{Capacity: 3, Seen: 9, Values: full[:2]}, false},
		{"no capacity", ReservoirState{}, false},
	} {
		if err := tc.st.Validate(); (err == nil) != tc.ok {
			t.Errorf("%s: Validate() = %v", tc.name, err)
		}
	}
}

func TestReservoirStateClampsOversizedValues(t *testing.T) {
	st := ReservoirState{Capacity: 2, Seen: 10, Values: mkValues(5)}
	r := RestoreReservoir(st, 2)
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
	restored := RestoreOASRS(back, o.seed)
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

// A restored sampler sizes a stratum seen for the first time in its
// interval as the original does: from the previous interval's strata, so
// the interval's first stratum gets half the budget, not the whole of it
// as in a sampler's first interval.
func TestRestoredOASRSSizesNewStrata(t *testing.T) {
	o := NewOASRS(30, nil, xrand.New(5))
	feedAll(o, mkEvents("a", 10))
	feedAll(o, mkEvents("b", 10))
	_ = o.Finish() // two strata of history
	restored := RestoreOASRS(o.State(), o.seed)
	for _, s := range []*OASRS{o, restored} {
		feedAll(s, mkEvents("a", 101))
		feedAll(s, mkEvents("c", 101))
	}
	want, got := o.Finish(), restored.Finish()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("restored sampler drew %+v, the original %+v", got, want)
	}
	for _, name := range []string{"a", "c"} {
		if n := len(got.Stratum(name).Values); n != 15 {
			t.Errorf("restored stratum %s reservoir = %d, want 15 (= 30/2)", name, n)
		}
	}
}
