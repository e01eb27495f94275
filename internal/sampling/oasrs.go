package sampling

import (
	"math"
	"slices"
	"sort"

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
// Equation 1.
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
	rng    *xrand.Rand

	reservoirs map[string]*Reservoir
	order      []string // strata in first-seen order, for stable iteration

	// expected is the stratum count observed in the previous interval;
	// Algorithm 3 re-derives the per-stratum size Ni each interval from
	// the updated sub-stream set S, so reservoir sizing converges to
	// budget/|S| after the first interval instead of over-allocating the
	// first-seen stratum.
	expected int

	// prev is the previous interval's arrival count per stratum and big
	// the reservoir size this interval's budget affords each stratum that
	// overflowed its share then; negative until the interval's first new
	// stratum draws the plan. counts is plan's scratch.
	prev   map[string]int64
	big    int
	counts []int64

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
// budget per interval. policy may be nil, in which case EqualShare is
// used.
func NewOASRS(budget int, policy SizePolicy, rng *xrand.Rand) *OASRS {
	if policy == nil {
		policy = EqualShare{}
	}
	if budget < 1 {
		budget = 1
	}
	return &OASRS{
		budget:     budget,
		policy:     policy,
		rng:        rng,
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

// Budget returns the current total sample-size budget.
func (o *OASRS) Budget() int { return o.budget }

// resolve returns the stratum's reservoir, creating it on first sight
// per Algorithm 3: a new sub-stream Si gets its sample size Ni
// adaptively, assuming at least as many strata as the previous interval
// saw — and, when it overflowed that share in the previous interval, the
// larger size the plan affords it. Its buffer is reserved for what the
// stratum had in the previous interval, up to that size.
func (o *OASRS) resolve(stratum string) *Reservoir {
	res, ok := o.reservoirs[stratum]
	if !ok {
		size := o.policy.StratumSize(o.budget, max(len(o.order)+1, o.expected))
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
			res = &Reservoir{rng: o.rng}
		}
		res.resize(size, int(min(prev, int64(size))))
		o.reservoirs[stratum] = res
		o.order = append(o.order, stratum)
	}
	return res
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

// AddBatch offers records [from, to) of a columnar batch. Records are
// processed in runs of equal stratum ID; each run resolves its
// reservoir once (through a dense table indexed by the batch-local
// dictionary ID, so even alternating strata cost one map probe per
// distinct stratum per call), and the reservoir samples the run, finding
// its end as it goes.
// The sample does not depend on how a stream's records are split into
// calls, number for number: the reservoirs' skip chains outlive the runs.
func (o *OASRS) AddBatch(b *stream.EventBatch, from, to int) {
	if from >= to {
		return
	}
	dense := o.dense
	if cap(dense) < len(b.Dict) {
		dense = make([]*Reservoir, len(b.Dict))
		o.dense = dense
	}
	dense = dense[:len(b.Dict)]
	// Dictionary IDs are batch-local, so the table cannot be trusted
	// across calls (pooled batches recycle pointers); clearing it is a
	// few words per distinct stratum.
	clear(dense)
	strata, values := b.Strata[:to], b.Values[:to]
	for i := from; i < to; {
		id := strata[i]
		res := dense[id]
		if res == nil {
			res = o.resolve(b.Dict[id])
			dense[id] = res
		}
		i = res.offer(strata, values, i, id)
	}
}

// Drain ends the interval: it calls visit with the interval's weighted
// sample — strata in key order, weights per Equation 1, value columns
// read in place from the reservoirs — and then resets the sampler for
// the next interval, keeping the emptied reservoirs for reuse. The sample
// and its values are only valid until visit returns; a caller that keeps
// them copies them (Finish does). Reservoir sizes are re-derived as strata
// reappear — from the budget then in force and the arrival counts this
// interval ends with — so arrival-rate changes and budget changes are
// picked up automatically, one interval behind.
func (o *OASRS) Drain(visit func(s *Sample)) {
	sort.Strings(o.order)
	strata := o.view.Strata[:0]
	for _, key := range o.order {
		res := o.reservoirs[key]
		strata = append(strata, StratumSample{
			Stratum: key,
			Values:  res.vals,
			Count:   res.seen,
			Weight:  weightFor(res.seen, len(res.vals)),
		})
	}
	o.view.Strata = strata
	visit(&o.view)
	clear(o.prev)
	for _, key := range o.order {
		res := o.reservoirs[key]
		o.prev[key] = res.seen
		res.Reset()
		o.free = append(o.free, res)
	}
	clear(o.reservoirs)
	o.big = -1
	o.expected = len(o.order)
	o.order = o.order[:0]
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
