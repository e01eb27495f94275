package sampling

import (
	"maps"
	"math"
	"math/bits"
	"slices"

	"streamapprox/internal/stream"
	"streamapprox/internal/xrand"
)

// SizePolicy determines a stratum's base reservoir size Ni given the total
// sample-size budget from the cost function and the set of strata seen so
// far in the interval (the paper's getSampleSize step in Algorithm 3).
// OASRS never sizes a stratum below it, and raises it for a stratum that
// can use what others cannot (see OASRS).
type SizePolicy interface {
	// StratumSize returns Ni for a (possibly new) stratum when numStrata
	// sub-streams have been observed in the current interval.
	StratumSize(totalBudget, numStrata int) int
}

// EqualShare divides the total budget equally among the strata observed so
// far, with a floor of one item per stratum. This is the paper's default,
// and the capacity no sub-stream is ever sized below, however rare: a
// stratum with fewer arrivals than its share keeps them all, and the slots
// it leaves empty are what OASRS hands to the strata that overflow theirs.
type EqualShare struct{}

// StratumSize implements SizePolicy.
func (EqualShare) StratumSize(totalBudget, numStrata int) int {
	if numStrata <= 0 {
		numStrata = 1
	}
	n := totalBudget / numStrata
	if n < 1 {
		n = 1
	}
	return n
}

// OASRS implements Online Adaptive Stratified Reservoir Sampling (paper
// Algorithm 3). It stratifies the input stream by Event.Stratum, runs an
// independent reservoir per stratum, counts arrivals per stratum (Ci), and
// on Finish emits the weighted sample of the interval with weights per
// Equation 1. A stratum's reservoir is keyed by the interval's seed and
// the stratum's name, so its sample is a function of its own records.
//
// Properties (§3.2): no sub-stream is overlooked regardless of popularity;
// no advance knowledge of sub-stream statistics is needed; sampling is
// on-the-fly (no batch materialization); and the algorithm adapts to
// fluctuating arrival rates because Ci is re-counted every interval.
//
// The budget is spent, not just offered: a stratum that had fewer arrivals
// in the previous interval than its share of the budget hands the rest
// back, and the strata that overflowed theirs split it (see plan). Every
// stratum keeps at least its SizePolicy share as capacity, so the sample
// only exceeds the budget — for one interval, and by at most the slots
// the under-full strata left empty — when those strata suddenly grow.
//
// OASRS is not safe for concurrent use; for parallel execution see
// DistributedOASRS.
type OASRS struct {
	budget int
	policy SizePolicy
	seed   uint64 // the interval's, which keys its reservoirs

	reservoirs map[string]*Reservoir

	// prev is the previous interval's arrival count per stratum: the
	// sampler's one history. Algorithm 3 re-derives the per-stratum size
	// Ni each interval from the sub-stream set S it names, so reservoir
	// sizing converges to budget/|S| after the first interval instead of
	// over-allocating the first-seen stratum. big is the reservoir size
	// this interval's budget affords each stratum that overflowed its
	// share then; negative until the interval's first new stratum draws
	// the plan. counts is plan's scratch, keys Drain's.
	prev   map[string]int64
	big    int
	counts []int64
	keys   []string

	// dense is AddBatch's per-call reservoir table indexed by the
	// batch-local dictionary ID, so a batch's records resolve their
	// stratum through the map once per distinct stratum per call.
	dense []*Reservoir

	// free holds the previous intervals' emptied reservoirs; resolve
	// reuses their value buffers instead of allocating one per stratum
	// per interval. view is Drain's reusable sample header.
	free []*Reservoir
	view Sample
}

// NewOASRS returns an OASRS sampler with the given total sample-size
// budget per interval, its first interval's seed drawn from rng, which it
// does not keep. policy may be nil, in which case EqualShare is used.
func NewOASRS(budget int, policy SizePolicy, rng *xrand.Rand) *OASRS {
	return NewKeyedOASRS(budget, policy, rng.Uint64())
}

// NewKeyedOASRS is NewOASRS with its first interval's seed given.
func NewKeyedOASRS(budget int, policy SizePolicy, seed uint64) *OASRS {
	if policy == nil {
		policy = EqualShare{}
	}
	if budget < 1 {
		budget = 1
	}
	return &OASRS{
		budget:     budget,
		policy:     policy,
		seed:       seed,
		reservoirs: make(map[string]*Reservoir),
		prev:       make(map[string]int64),
		big:        -1,
	}
}

// SetBudget adjusts the total sample-size budget. It takes effect for
// strata first seen after the call (existing reservoirs keep their size
// until the next interval) — the split of the new budget over the strata
// is drawn at the first such arrival — mirroring the paper's per-interval
// budget re-evaluation (Algorithm 2: the cost function runs once per
// interval).
func (o *OASRS) SetBudget(budget int) {
	if budget < 1 {
		budget = 1
	}
	o.budget = budget
	o.big = -1
}

// Unbounded is the budget that keeps every item offered: a fraction-1
// sample's. No reservoir sized from it allocates by its capacity (see
// Reservoir.resize).
const Unbounded = math.MaxInt

// FractionBudget is the budget fraction affords n arrivals: the fraction
// of them, rounded down, or Unbounded at fraction 1, so that a fraction-1
// sample keeps every item however many arrive — not only n.
func FractionBudget(fraction float64, n int) int {
	if fraction >= 1 {
		return Unbounded
	}
	return int(fraction * float64(n))
}

// SegmentBudget is a slide segment's budget: FractionBudget of the
// previous segment's arrival count, or 64 when that is below one item
// (before any count is known).
func SegmentBudget(fraction float64, lastCount int) int {
	if budget := FractionBudget(fraction, lastCount); budget >= 1 {
		return budget
	}
	return 64
}

// SetSeed sets the interval's seed and keys the interval's reservoirs by
// it, those of strata already seen included: a caller that keys each
// interval itself sets it after Drain, which leaves none.
func (o *OASRS) SetSeed(seed uint64) {
	o.seed = seed
	for stratum, res := range o.reservoirs {
		res.key = o.stratumKey(stratum)
	}
}

// Budget returns the current total sample-size budget.
func (o *OASRS) Budget() int { return o.budget }

// resolve returns the reservoir of dictionary ID id, entering it in
// dense, and creates the stratum's on first sight per Algorithm 3: a new
// sub-stream Si gets its sample size Ni adaptively, assuming at least as
// many strata as the previous interval saw — and, when it overflowed that
// share in the previous interval, the larger size the plan affords it.
// Its buffer is reserved for what the stratum had in the previous
// interval, up to that size and the spare slot.
func (o *OASRS) resolve(dict []string, dense []*Reservoir, id uint) *Reservoir {
	stratum := dict[id]
	res, ok := o.reservoirs[stratum]
	if !ok {
		size := o.policy.StratumSize(o.budget, max(len(o.reservoirs)+1, len(o.prev)))
		if o.big < 0 {
			o.plan()
		}
		prev := o.prev[stratum]
		if prev > int64(size) && o.big > size {
			size = o.big
		}
		if k := len(o.free); k > 0 {
			res, o.free = o.free[k-1], o.free[:k-1]
		} else {
			res = &Reservoir{}
		}
		res.resize(size, int(prev))
		res.key = o.stratumKey(stratum)
		o.reservoirs[stratum] = res
	}
	dense[id] = res
	return res
}

// stratumKey is the stratum's reservoir key: the interval's seed mixed
// with the name's FNV-1a hash, which every process computes alike.
func (o *OASRS) stratumKey(stratum string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(stratum); i++ {
		h = (h ^ uint64(stratum[i])) * 1099511628211
	}
	return xrand.At(o.seed, h)
}

// plan water-fills the budget over the previous interval's arrival
// counts, smallest first: a stratum with fewer arrivals than an equal part
// of what is left is charged only those, and big is the equal part of what
// the rest — at least the largest stratum — are left with. Should the
// counts repeat, min(size, count) summed over the strata is the budget.
func (o *OASRS) plan() {
	counts := o.counts[:0]
	for _, c := range o.prev {
		counts = append(counts, c)
	}
	slices.Sort(counts)
	o.counts = counts
	left, k := int64(o.budget), int64(len(counts))
	for _, c := range counts {
		if k == 1 || c*k >= left {
			break
		}
		left -= c
		k--
	}
	o.big = 0
	if k > 0 {
		o.big = int(left / k)
	}
}

// AddBatch offers records [from, to) of a columnar batch in one loop:
// each looks its reservoir up through a table indexed by the batch-local
// dictionary ID (one map probe per distinct stratum per call), then
// takes Reservoir.AddBatch's step. As a draw depends on the stratum's
// count alone, the sample does not depend on how records are batched.
func (o *OASRS) AddBatch(b *stream.EventBatch, from, to int) {
	if from >= to {
		return
	}
	// Dictionary IDs are batch-local, so the table cannot be trusted
	// across calls (pooled batches recycle pointers); clearing it is a
	// few words per distinct stratum. Its length is a power of two no
	// shorter than the dictionary, so masking an ID leaves it as it is
	// and proves it in range: the lookup checks no bound.
	mask := uint(1)<<bits.Len32(uint32(max(len(b.Dict), 1)-1)) - 1
	if uint(cap(o.dense)) <= mask {
		o.dense = make([]*Reservoir, mask+1)
	}
	dense := o.dense[:mask+1]
	clear(dense)
	strata, values := b.Strata[:to], b.Values[:to]
	for i := uint(from); i < uint(to); i++ { // per record
		id := uint(strata[i]) & mask
		res := dense[id]
		if res == nil {
			res = o.resolve(b.Dict, dense, id)
		}
		res.seen++
		if t, n := uint64(res.seen), uint64(res.capacity); t <= n {
			res.vals = append(res.vals, values[i])
		} else {
			if t == n+1 {
				res.vals = append(res.vals, 0)
			}
			j, lo := bits.Mul64(xrand.At(res.key, t), t)
			if lo < t {
				j = redraw(res.key, t, j, lo)
			}
			res.vals[min(j, n)] = values[i] // slot store
		}
	}
}

// Drain ends the interval: it calls visit with the interval's weighted
// sample — strata in key order, weights per Equation 1, value columns
// read in place from the reservoirs — and then resets the sampler for
// the next interval, keeping the emptied reservoirs for reuse, and steps
// the seed on to the next interval's, xrand.At(seed, 1). The sample and its values are only valid
// until visit returns; a caller that keeps them copies them (Finish
// does). Reservoir sizes are re-derived as strata reappear — from the
// budget then in force and the arrival counts this interval ends with —
// so arrival-rate changes and budget changes are picked up
// automatically, one interval behind.
func (o *OASRS) Drain(visit func(s *Sample)) {
	keys := o.keys[:0]
	for key := range o.reservoirs {
		keys = append(keys, key)
	}
	slices.Sort(keys)
	o.keys = keys
	strata := o.view.Strata[:0]
	for _, key := range keys {
		res := o.reservoirs[key]
		vals := res.sample()
		strata = append(strata, StratumSample{
			Stratum: key,
			Values:  vals,
			Count:   res.seen,
			Weight:  weightFor(res.seen, len(vals)),
		})
	}
	o.view.Strata = strata
	visit(&o.view)
	clear(o.prev)
	for _, key := range keys {
		res := o.reservoirs[key]
		o.prev[key] = res.seen
		res.Reset()
		o.free = append(o.free, res)
	}
	clear(o.reservoirs)
	o.seed = xrand.At(o.seed, 1)
	o.big = -1
}

// Arrivals returns the arrival counts of this interval so far and of the
// previous one, summed over the strata: what the reservoirs and their
// history hold.
func (o *OASRS) Arrivals() (interval, previous int64) {
	for _, res := range o.reservoirs {
		interval += res.seen
	}
	for _, c := range o.prev {
		previous += c
	}
	return interval, previous
}

// SameArrivals reports whether o and p hold the same arrival counts,
// stratum by stratum, in this interval and the previous one, in
// reservoirs of the same sizes: what each plans and sizes the strata
// still to come from, so from here each samples what follows as the other
// would. A nil sampler has seen nothing.
func (o *OASRS) SameArrivals(p *OASRS) bool {
	if o == nil || p == nil {
		return o == p
	}
	if o.budget != p.budget || len(o.reservoirs) != len(p.reservoirs) || !maps.Equal(o.prev, p.prev) {
		return false
	}
	for key, res := range o.reservoirs {
		if q, ok := p.reservoirs[key]; !ok || q.seen != res.seen || q.capacity != res.capacity {
			return false
		}
	}
	return true
}

// Finish returns the weighted sample for the interval and resets the
// sampler for the next one: Drain, with each stratum's values copied out.
func (o *OASRS) Finish() *Sample {
	out := &Sample{}
	o.Drain(func(s *Sample) {
		out.Strata = slices.Clone(s.Strata)
		for i := range out.Strata {
			out.Strata[i].Values = slices.Clone(out.Strata[i].Values)
		}
	})
	return out
}
