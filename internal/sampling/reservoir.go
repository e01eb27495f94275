package sampling

import (
	"math"

	"streamapprox/internal/stream"
	"streamapprox/internal/xrand"
)

// Reservoir maintains a uniform random sample of fixed capacity over a
// stream of unknown length (paper Algorithm 1; Vitter's Algorithm R).
// After observing i items, every item has probability min(1, N/i) of being
// in the reservoir.
//
// Reservoir is not safe for concurrent use.
type Reservoir struct {
	capacity int
	items    []stream.Event
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

// resize sets an empty reservoir's capacity, keeping its row buffer
// when that is already large enough.
func (r *Reservoir) resize(capacity int) {
	if capacity <= 0 {
		capacity = 1
	}
	r.capacity = capacity
	if cap(r.items) < capacity {
		r.items = make([]stream.Event, 0, capacity)
	}
}

// Add offers one item to the reservoir.
func (r *Reservoir) Add(e stream.Event) {
	r.seen++
	if len(r.items) < r.capacity {
		r.items = append(r.items, e)
		return
	}
	// Accept the i-th item with probability N/i, then replace a uniformly
	// random victim.
	j := r.rng.Uint64n(uint64(r.seen))
	if j < uint64(r.capacity) {
		r.items[j] = e
	}
}

// AddBatch offers records [from, to) of a columnar batch — a run of
// equal-stratum records resolved once by OASRS.AddBatch. The fill phase
// copies rows directly; past fill it uses multiplicative skip-sampling
// (Vitter-style inversion): one uniform draw v per ACCEPTED item, then a
// running product p of the per-item rejection probabilities 1 - N/i
// until p <= v. Because P(p_k <= v | p_{k-1} > v) = N/(seen+k), each
// item is accepted with exactly Algorithm R's probability N/i — the
// sampled distribution is identical, but a rejected record costs one
// multiply and compare instead of an RNG draw. A skip chain left
// unfinished at the batch boundary is simply discarded: the per-item
// acceptance events are independent, so restarting fresh next batch
// changes nothing.
func (r *Reservoir) AddBatch(b *stream.EventBatch, from, to int) {
	i := from
	for i < to && len(r.items) < r.capacity {
		r.seen++
		r.items = append(r.items, b.EventAt(i))
		i++
	}
	capF := float64(r.capacity)
	for i < to {
		v := nonZeroFloat(r.rng)
		p := 1.0
		for i < to {
			r.seen++
			p *= 1 - capF/float64(r.seen)
			i++
			if p <= v {
				r.items[r.rng.Intn(r.capacity)] = b.EventAt(i - 1)
				break
			}
		}
	}
}

// Seen returns the number of items offered so far.
func (r *Reservoir) Seen() int64 { return r.seen }

// Capacity returns the maximum sample size N.
func (r *Reservoir) Capacity() int { return r.capacity }

// Items returns the current sample. The returned slice is a copy, so the
// caller may retain it across Reset.
func (r *Reservoir) Items() []stream.Event {
	out := make([]stream.Event, len(r.items))
	copy(out, r.items)
	return out
}

// Reset clears the reservoir for the next interval, keeping capacity.
func (r *Reservoir) Reset() {
	r.items = r.items[:0]
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
	items    []stream.Event
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
		items:    make([]stream.Event, 0, capacity),
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

// Add offers one item.
func (s *SkipReservoir) Add(e stream.Event) {
	s.seen++
	if len(s.items) < s.capacity {
		s.items = append(s.items, e)
		if len(s.items) == s.capacity {
			s.next = s.seen
			s.advance()
		}
		return
	}
	if s.seen == s.next {
		s.items[s.rng.Intn(s.capacity)] = e
		s.advance()
	}
}

// Seen returns the number of items offered so far.
func (s *SkipReservoir) Seen() int64 { return s.seen }

// Items returns a copy of the current sample.
func (s *SkipReservoir) Items() []stream.Event {
	out := make([]stream.Event, len(s.items))
	copy(out, s.items)
	return out
}

// Reset clears the reservoir for the next interval.
func (s *SkipReservoir) Reset() {
	s.items = s.items[:0]
	s.seen = 0
	s.next = 0
	s.w = 1
}
