package sampling

import (
	"math"
	"slices"

	"streamapprox/internal/xrand"
)

// Reservoir maintains a uniform random sample of fixed capacity over a
// stream of unknown length (paper Algorithm 1; Vitter's Algorithm R).
// After observing i items, every item has probability min(1, N/i) of being
// in the reservoir. A slot holds the item's value and nothing else: the
// stratum is the reservoir's owner's to know, and no query reads a
// sampled item's time.
//
// Reservoir is not safe for concurrent use.
type Reservoir struct {
	capacity int
	vals     []float64
	seen     int64
	rng      *xrand.Rand
}

// NewReservoir returns a reservoir holding at most capacity items.
// capacity must be positive.
func NewReservoir(capacity int, rng *xrand.Rand) *Reservoir {
	r := &Reservoir{rng: rng}
	r.resize(capacity)
	return r
}

// resize sets an empty reservoir's capacity, keeping its value buffer
// when that is already large enough.
func (r *Reservoir) resize(capacity int) {
	if capacity <= 0 {
		capacity = 1
	}
	r.capacity = capacity
	if cap(r.vals) < capacity {
		r.vals = make([]float64, 0, capacity)
	}
}

// Add offers one item's value to the reservoir.
func (r *Reservoir) Add(v float64) {
	r.seen++
	if len(r.vals) < r.capacity {
		r.vals = append(r.vals, v)
		return
	}
	// Accept the i-th item with probability N/i, then replace a uniformly
	// random victim.
	j := r.rng.Uint64n(uint64(r.seen))
	if j < uint64(r.capacity) {
		r.vals[j] = v
	}
}

// AddBatch offers a run of one stratum's values — a slice of a columnar
// batch's value column, resolved once by OASRS.AddBatch. The fill phase
// is one bulk append; past fill it uses multiplicative skip-sampling
// (Vitter-style inversion): one uniform draw u per ACCEPTED item, then a
// running product p of the per-item rejection probabilities 1 - N/i
// until p <= u. Because P(p_k <= u | p_{k-1} > u) = N/(seen+k), each
// item is accepted with exactly Algorithm R's probability N/i — the
// sampled distribution is identical, but a rejected record costs one
// multiply and compare instead of an RNG draw. A skip chain left
// unfinished at the batch boundary is simply discarded: the per-item
// acceptance events are independent, so restarting fresh next batch
// changes nothing.
func (r *Reservoir) AddBatch(values []float64) {
	i := 0
	if room := r.capacity - len(r.vals); room > 0 {
		i = min(len(values), room)
		r.vals = append(r.vals, values[:i]...)
		r.seen += int64(i)
	}
	capF, seen := float64(r.capacity), r.seen
	for i < len(values) {
		u := nonZeroFloat(r.rng)
		p := 1.0
		for i < len(values) {
			seen++
			p *= 1 - capF/float64(seen)
			i++
			if p <= u {
				r.vals[r.rng.Intn(r.capacity)] = values[i-1]
				break
			}
		}
	}
	r.seen = seen
}

// Seen returns the number of items offered so far.
func (r *Reservoir) Seen() int64 { return r.seen }

// Capacity returns the maximum sample size N.
func (r *Reservoir) Capacity() int { return r.capacity }

// Values returns the current sample's values. The returned slice is a
// copy, so the caller may retain it across Reset.
func (r *Reservoir) Values() []float64 { return slices.Clone(r.vals) }

// Reset clears the reservoir for the next interval, keeping capacity.
func (r *Reservoir) Reset() {
	r.vals = r.vals[:0]
	r.seen = 0
}

// SkipReservoir is a reservoir sampler using Li's Algorithm L: instead of
// flipping a coin per item, it draws the number of items to skip before
// the next replacement from the correct geometric-like distribution. For
// low sampling fractions it touches the RNG O(N log(i/N)) times instead of
// O(i), which is the ablation `abl-skip` quantifies.
//
// The sampled distribution is identical to Reservoir's (uniform without
// replacement).
type SkipReservoir struct {
	capacity int
	vals     []float64
	seen     int64
	next     int64 // index (1-based) of the next item to admit
	w        float64
	rng      *xrand.Rand
}

// NewSkipReservoir returns a skip-based reservoir of the given capacity.
func NewSkipReservoir(capacity int, rng *xrand.Rand) *SkipReservoir {
	if capacity <= 0 {
		capacity = 1
	}
	s := &SkipReservoir{
		capacity: capacity,
		vals:     make([]float64, 0, capacity),
		rng:      rng,
		w:        1,
	}
	return s
}

func (s *SkipReservoir) advance() {
	// W *= U^(1/N); skip ~ floor(log(U)/log(1-W)).
	s.w *= math.Exp(math.Log(nonZeroFloat(s.rng)) / float64(s.capacity))
	skip := int64(math.Floor(math.Log(nonZeroFloat(s.rng))/math.Log(1-s.w))) + 1
	if skip < 1 {
		skip = 1
	}
	s.next += skip
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

// Add offers one item's value.
func (s *SkipReservoir) Add(v float64) {
	s.seen++
	if len(s.vals) < s.capacity {
		s.vals = append(s.vals, v)
		if len(s.vals) == s.capacity {
			s.next = s.seen
			s.advance()
		}
		return
	}
	if s.seen == s.next {
		s.vals[s.rng.Intn(s.capacity)] = v
		s.advance()
	}
}

// Seen returns the number of items offered so far.
func (s *SkipReservoir) Seen() int64 { return s.seen }

// Values returns a copy of the current sample's values.
func (s *SkipReservoir) Values() []float64 { return slices.Clone(s.vals) }

// Reset clears the reservoir for the next interval.
func (s *SkipReservoir) Reset() {
	s.vals = s.vals[:0]
	s.seen = 0
	s.next = 0
	s.w = 1
}
