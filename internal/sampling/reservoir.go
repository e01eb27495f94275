package sampling

import (
	"slices"

	"streamapprox/internal/xrand"
)

// Reservoir maintains a uniform random sample of fixed capacity over a
// stream of unknown length (paper Algorithm 1). After observing i items,
// every item has probability min(1, N/i) of being in the reservoir. A
// slot holds the item's value and nothing else: the stratum is the
// reservoir's owner's to know, and no query reads a sampled item's time.
//
// Past fill it runs one loop, a multiplicative skip chain (see offer),
// and the chain in flight is part of the reservoir's state: it survives
// the call that started it, State and RestoreReservoir carry it, and only
// Reset ends it. So the sample is a function of the offered values and
// the random stream alone — offering them one at a time through Add or in
// runs of any length through AddBatch draws the same numbers at the same
// items and keeps the same ones.
//
// Reservoir is not safe for concurrent use.
type Reservoir struct {
	capacity int
	vals     []float64
	seen     int64
	// u is the skip chain's uniform draw and p the running product of the
	// rejection probabilities of the items it has passed over; p == 0
	// (with u == 0) means no chain is in flight, and the next item offered
	// past fill starts one.
	u, p float64
	rng  *xrand.Rand
}

// NewReservoir returns a reservoir holding at most capacity items.
// capacity must be positive.
func NewReservoir(capacity int, rng *xrand.Rand) *Reservoir {
	r := &Reservoir{rng: rng}
	r.resize(capacity)
	return r
}

// resize sets an empty reservoir's capacity, keeping its value buffer
// when that is already large enough, and ends any skip chain.
func (r *Reservoir) resize(capacity int) {
	if capacity <= 0 {
		capacity = 1
	}
	r.capacity = capacity
	r.u, r.p = 0, 0
	if cap(r.vals) < capacity {
		r.vals = make([]float64, 0, capacity)
	}
}

// Add offers one item's value to the reservoir: AddBatch of one value.
func (r *Reservoir) Add(v float64) { r.AddBatch([]float64{v}) }

// AddBatch offers values in order. They are offered as one stratum's run,
// under a stratum column of zeros, a chunk at a time.
func (r *Reservoir) AddBatch(values []float64) {
	for len(values) > 0 {
		n := r.offer(oneStratum[:min(len(values), len(oneStratum))], values, 0, 0)
		values = values[n:]
	}
}

// oneStratum is the stratum column AddBatch offers plain values under.
var oneStratum [1024]int32

// offer offers the run of one stratum, id, that starts at record i of a
// columnar batch's stratum and value columns: values[i], values[i+1], …
// while the stratum is id. It returns the index after the run. Finding
// the run's end as it goes, rather than in a scan before it, costs one
// compare per record and saves a second loop and a call per run.
//
// The fill phase appends value by value: runs are short, and a bulk
// copy's call costs more. Past fill it uses multiplicative skip-sampling
// (Vitter-style inversion): one uniform draw u per ACCEPTED item, then a
// running product p of the per-item rejection probabilities 1 - N/i until
// p <= u, which accepts that item into a uniformly random slot. Because
// P(p_k <= u | p_{k-1} > u) = N/(seen+k), each item is accepted with
// exactly Algorithm R's probability N/i, yet a rejected item costs one
// division, subtraction, multiply and compare instead of an RNG draw. A
// chain still running when the run ends is kept, and the next call
// continues it. values must be at least as long as strata.
func (r *Reservoir) offer(strata []int32, values []float64, i int, id int32) int {
	// Unsigned indexes: k < n alone proves strata[k] and values[k] in
	// range, so neither loop nor the chain start checks a bound.
	values = values[:len(strata)]
	k, n := uint(i), uint(len(strata))
	if room := r.capacity - len(r.vals); room > 0 {
		vals := r.vals
		for end := min(n, k+uint(room)); k < end && strata[k] == id; k++ { // per record
			vals = append(vals, values[k])
		}
		r.seen += int64(len(vals) - len(r.vals))
		r.vals = vals
	}
	capF, seen, u, p := float64(r.capacity), r.seen, r.u, r.p
	for k < n && strata[k] == id {
		if p == 0 {
			u, p = nonZeroFloat(r.rng), 1
		}
		for ; k < n && strata[k] == id; k++ { // per record
			seen++
			p *= 1 - capF/float64(seen)
			if p <= u {
				// The slot store keeps the chain's one bounds check, paid
				// per accepted item: the compiler cannot tie Intn's range
				// to len(r.vals).
				r.vals[r.rng.Intn(r.capacity)] = values[k] // accept check
				u, p = 0, 0
				k++
				break
			}
		}
	}
	r.seen, r.u, r.p = seen, u, p
	return int(k)
}

// nonZeroFloat returns a uniform float in (0, 1).
func nonZeroFloat(r *xrand.Rand) float64 {
	for {
		f := r.Float64()
		if f > 0 {
			return f
		}
	}
}

// Seen returns the number of items offered so far.
func (r *Reservoir) Seen() int64 { return r.seen }

// Capacity returns the maximum sample size N.
func (r *Reservoir) Capacity() int { return r.capacity }

// Values returns the current sample's values. The returned slice is a
// copy, so the caller may retain it across Reset.
func (r *Reservoir) Values() []float64 { return slices.Clone(r.vals) }

// Reset clears the reservoir for the next interval, keeping capacity and
// ending any skip chain.
func (r *Reservoir) Reset() {
	r.vals = r.vals[:0]
	r.seen = 0
	r.u, r.p = 0, 0
}
