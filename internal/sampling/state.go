package sampling

import (
	"fmt"
	"maps"
)

// This file provides checkpoint/restore state for the samplers, the
// basis of the public Session.Snapshot fault-tolerance API. States are
// plain data with JSON tags; restoring a state yields a sampler that
// continues exactly where the original left off.

// ReservoirState is a Reservoir's serializable state; OASRS derives the
// key. A skip chain ("u", "p") an older build wrote is not read: Algorithm
// R's draws are independent per item, so restoring without it is exact.
type ReservoirState struct {
	Capacity int       `json:"capacity"`
	Seen     int64     `json:"seen"`
	Values   []float64 `json:"values"`
}

// Validate reports a state no reservoir could have been in: a capacity
// below one, or other than min(seen, capacity) values.
func (st ReservoirState) Validate() error {
	switch {
	case st.Capacity < 1:
		return fmt.Errorf("capacity %d", st.Capacity)
	case int64(len(st.Values)) != min(st.Seen, int64(st.Capacity)):
		return fmt.Errorf("%d values of %d seen in capacity %d", len(st.Values), st.Seen, st.Capacity)
	}
	return nil
}

// State captures the reservoir's contents and counter.
func (r *Reservoir) State() ReservoirState {
	return ReservoirState{Capacity: r.capacity, Seen: r.seen, Values: r.Values()}
}

// RestoreReservoir rebuilds a reservoir keyed key from a state, its
// buffer reserved for the state's values.
func RestoreReservoir(st ReservoirState, key uint64) *Reservoir {
	r := &Reservoir{key: key}
	r.resize(st.Capacity, int(st.Seen))
	r.seen = st.Seen
	r.vals = append(r.vals, st.Values[:min(len(st.Values), r.capacity)]...)
	if r.seen > int64(r.capacity) {
		r.vals = append(r.vals, 0) // the spare slot
	}
	return r
}

// OASRSState is an OASRS sampler's serializable state: the interval's
// budget and reservoirs, and the previous interval's arrival count per
// stratum, which sizes the strata still to appear in this one. The
// interval seed is not state: the caller keys the interval (see
// RestoreOASRS).
type OASRSState struct {
	Budget     int                       `json:"budget"`
	Reservoirs map[string]ReservoirState `json:"reservoirs"`
	Prev       map[string]int64          `json:"prev,omitempty"`
}

// State captures the sampler's per-stratum reservoirs and counters.
func (o *OASRS) State() OASRSState {
	st := OASRSState{
		Budget:     o.budget,
		Reservoirs: make(map[string]ReservoirState, len(o.reservoirs)),
		Prev:       maps.Clone(o.prev),
	}
	for key, res := range o.reservoirs {
		st.Reservoirs[key] = res.State()
	}
	return st
}

// RestoreOASRS rebuilds an OASRS sampler from a state, its interval keyed
// by seed, sizing strata by EqualShare.
func RestoreOASRS(st OASRSState, seed uint64) *OASRS {
	o := NewKeyedOASRS(st.Budget, nil, seed)
	maps.Copy(o.prev, st.Prev)
	for key, rs := range st.Reservoirs {
		o.reservoirs[key] = RestoreReservoir(rs, o.stratumKey(key))
	}
	return o
}
