package sampling

import (
	"math/bits"
	"slices"

	"streamapprox/internal/xrand"
)

// Reservoir maintains a uniform random sample of fixed capacity N over a
// stream of unknown length (paper Algorithm 1, Vitter's Algorithm R). A
// slot holds an item's value and nothing else.
//
// Item t ≤ N fills slot t. Item t > N draws j uniform in [0, t) from
// x = xrand.At(key, t) by Lemire's method, j = ⌊x·t/2⁶⁴⌋ (see redraw),
// and is stored in slot min(j, N): slot j when j < N, so each item is
// kept with probability N/t, and otherwise the spare slot past capacity.
// A draw depends on the key and t alone, so the sample is a function of
// the key and the values, however they are batched.
//
// Reservoir is not safe for concurrent use.
type Reservoir struct {
	capacity int
	// vals is the sample, and past fill the spare slot after it, which
	// keeps the store free of a branch on the draw. It is appended at
	// the first item past fill: an Unbounded reservoir never has it.
	vals []float64
	seen int64
	key  uint64
}

// NewReservoir returns a reservoir holding at most capacity items, its
// buffer reserved for all of them and its key drawn from rng. capacity
// must be positive.
func NewReservoir(capacity int, rng *xrand.Rand) *Reservoir {
	r := &Reservoir{key: rng.Uint64()}
	r.resize(capacity, capacity)
	return r
}

// resize sets an empty reservoir's capacity. Its value buffer is kept
// when it holds min(capacity, expect) values already, and the spare slot
// when expect exceeds capacity, and otherwise reserved for that many: a
// capacity is a bound — Unbounded's share of a budget, say — not what
// arrives, and the fill appends past what was reserved.
func (r *Reservoir) resize(capacity, expect int) {
	if capacity <= 0 {
		capacity = 1
	}
	r.capacity = capacity
	if n := min(capacity, expect-1) + 1; cap(r.vals) < n {
		r.vals = make([]float64, 0, n)
	}
}

// AddBatch offers values in order, each as OASRS.AddBatch offers a
// record.
func (r *Reservoir) AddBatch(values []float64) {
	n := uint64(r.capacity)
	for _, v := range values { // per record
		r.seen++
		if t := uint64(r.seen); t <= n {
			r.vals = append(r.vals, v)
		} else {
			if t == n+1 {
				r.vals = append(r.vals, 0)
			}
			j, lo := bits.Mul64(xrand.At(r.key, t), t)
			if lo < t {
				j = redraw(r.key, t, j, lo)
			}
			r.vals[min(j, n)] = v // slot store
		}
	}
}

// redraw completes Lemire's method for item t's draw j when its low
// product word lo fell below t: the draw stands unless lo is below
// 2⁶⁴ mod t, and is otherwise made again, by rejection, from a generator
// seeded at position ^t of the key's stream, which no item's first draw
// reads. It is rare, with probability below t/2⁶⁴ per item.
func redraw(key, t, j, lo uint64) uint64 {
	if lo >= -t%t {
		return j
	}
	return xrand.New(xrand.At(key, ^t)).Uint64n(t)
}

// sample returns the sample in place: the values without the spare slot.
func (r *Reservoir) sample() []float64 { return r.vals[:min(len(r.vals), r.capacity)] }

// Seen returns the number of items offered so far.
func (r *Reservoir) Seen() int64 { return r.seen }

// Capacity returns the maximum sample size N.
func (r *Reservoir) Capacity() int { return r.capacity }

// Values returns the current sample's values. The returned slice is a
// copy, so the caller may retain it across Reset.
func (r *Reservoir) Values() []float64 { return slices.Clone(r.sample()) }

// Reset clears the reservoir for the next interval, keeping its capacity
// and key.
func (r *Reservoir) Reset() {
	r.vals = r.vals[:0]
	r.seen = 0
}
