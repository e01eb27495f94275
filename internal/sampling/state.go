package sampling

import (
	"fmt"
	"maps"

	"streamapprox/internal/xrand"
)

// This file provides checkpoint/restore state for the samplers, the
// basis of the public Session.Snapshot fault-tolerance API. States are
// plain data with JSON tags; restoring a state yields a sampler that
// continues exactly where the original left off (given the captured RNG
// state is restored alongside, which the Session does).

// ReservoirState is a Reservoir's serializable state. U and P are the
// skip chain in flight; a state without them — every state written before
// the chain outlived a call — has none, which is what a reservoir between
// two such calls had.
type ReservoirState struct {
	Capacity int       `json:"capacity"`
	Seen     int64     `json:"seen"`
	Values   []float64 `json:"values"`
	U        float64   `json:"u,omitempty"`
	P        float64   `json:"p,omitempty"`
}

// Validate reports a state no reservoir could have been in: more values
// than capacity or than were offered, or a skip chain outside its domain
// (none in flight, or 0 < u < p <= 1 in a full reservoir). A chain with
// u <= 0 or p <= u would never accept again.
func (st ReservoirState) Validate() error {
	switch {
	case len(st.Values) > st.Capacity:
		return fmt.Errorf("%d values in capacity %d", len(st.Values), st.Capacity)
	case st.Seen < int64(len(st.Values)):
		return fmt.Errorf("%d values of %d seen", len(st.Values), st.Seen)
	case st.P == 0 && st.U == 0:
		return nil
	case !(0 < st.U && st.U < st.P && st.P <= 1):
		return fmt.Errorf("skip chain u=%g p=%g", st.U, st.P)
	case len(st.Values) != st.Capacity:
		return fmt.Errorf("skip chain in flight in a reservoir holding %d of %d", len(st.Values), st.Capacity)
	}
	return nil
}

// State captures the reservoir's contents, counters and skip chain.
func (r *Reservoir) State() ReservoirState {
	return ReservoirState{Capacity: r.capacity, Seen: r.seen, Values: r.Values(), U: r.u, P: r.p}
}

// RestoreReservoir rebuilds a reservoir from a state, its buffer reserved
// for the state's values.
func RestoreReservoir(st ReservoirState, rng *xrand.Rand) *Reservoir {
	r := &Reservoir{rng: rng}
	r.resize(st.Capacity, len(st.Values))
	r.seen = st.Seen
	r.vals = append(r.vals, st.Values[:min(len(st.Values), r.capacity)]...)
	r.u, r.p = st.U, st.P
	return r
}

// OASRSState is an OASRS sampler's serializable state.
type OASRSState struct {
	Budget     int                       `json:"budget"`
	Expected   int                       `json:"expected"`
	Order      []string                  `json:"order"`
	Reservoirs map[string]ReservoirState `json:"reservoirs"`
	// Prev is the previous interval's arrival count per stratum, which
	// sizes the strata still to appear in this one. A state written before
	// it existed has none and restores with no history to plan from, like
	// a sampler in its first interval: each such stratum gets its share.
	Prev map[string]int64 `json:"prev,omitempty"`
}

// State captures the sampler's per-stratum reservoirs and counters.
func (o *OASRS) State() OASRSState {
	st := OASRSState{
		Budget:     o.budget,
		Expected:   o.expected,
		Order:      append([]string(nil), o.order...),
		Reservoirs: make(map[string]ReservoirState, len(o.reservoirs)),
		Prev:       maps.Clone(o.prev),
	}
	for key, res := range o.reservoirs {
		st.Reservoirs[key] = res.State()
	}
	return st
}

// RestoreOASRS rebuilds an OASRS sampler from a state. policy may be nil
// for the default EqualShare.
func RestoreOASRS(st OASRSState, policy SizePolicy, rng *xrand.Rand) *OASRS {
	o := NewOASRS(st.Budget, policy, rng)
	o.expected = st.Expected
	o.order = append(o.order[:0], st.Order...)
	maps.Copy(o.prev, st.Prev)
	for key, rs := range st.Reservoirs {
		o.reservoirs[key] = RestoreReservoir(rs, rng)
	}
	return o
}
