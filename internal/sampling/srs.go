package sampling

import (
	"math"

	"streamapprox/internal/stream"
	"streamapprox/internal/xrand"
)

// RandomSortSRS reproduces Apache Spark's simple random sampling operator
// (`sample`, §4.1.1): every item is tagged with a uniform random key, and
// the k items with the smallest keys form the sample. Because sorting a
// whole batch is expensive, Spark bounds the sort with two thresholds
// (Meng's ScaSRS): items with key < q2 are accepted outright, items with
// key > q1 are rejected outright, and only the "waitlist" in between is
// sorted. We implement exactly that, so the baseline pays exactly the
// costs Spark pays.
//
// SRS is oblivious to strata: the resulting Sample has a single pseudo
// stratum with a uniform weight n/k, whose Keys column says which stratum
// each sampled value came from. That is precisely why SRS "loses the
// capability of considering each sub-stream fairly" (§5.2) — rare but
// significant sub-streams may not be represented at all.
type RandomSortSRS struct {
	fraction float64
	delta    float64
	rng      *xrand.Rand
}

// SRSPseudoStratum is the stratum key under which RandomSortSRS reports
// its (stratification-free) sample.
const SRSPseudoStratum = "__srs__"

// NewRandomSortSRS returns an SRS batch sampler selecting the given
// fraction of each batch. The failure probability for the threshold bounds
// is fixed at 1e-4, matching Spark's SamplingUtils default.
func NewRandomSortSRS(fraction float64, rng *xrand.Rand) *RandomSortSRS {
	if fraction < 0 {
		fraction = 0
	}
	if fraction > 1 {
		fraction = 1
	}
	return &RandomSortSRS{fraction: fraction, delta: 1e-4, rng: rng}
}

// thresholds computes the accept/reject key thresholds (q2, q1) for
// selecting k = ceil(f*n) out of n items with failure probability delta.
func (s *RandomSortSRS) thresholds(n int) (lo, hi float64) {
	if n == 0 {
		return 0, 0
	}
	f := s.fraction
	g1 := -math.Log(s.delta) / float64(n)
	g2 := -2 * math.Log(s.delta) / (3 * float64(n))
	hi = math.Min(1, f+g1+math.Sqrt(g1*g1+2*g1*f))
	lo = math.Max(0, f+g2-math.Sqrt(g2*g2+3*g2*f))
	return lo, hi
}

// keyed is a random sort key and the input position it was drawn for.
type keyed struct {
	key float64
	i   int
}

// SampleBatch selects ceil(fraction*len(events)) items via bounded random
// sort and returns them as a single pseudo-stratum sample weighted n/k.
func (s *RandomSortSRS) SampleBatch(events []stream.Event) *Sample {
	n := len(events)
	k := int(math.Ceil(s.fraction * float64(n)))
	st := StratumSample{Stratum: SRSPseudoStratum, Count: int64(n), Weight: 1}
	if k == 0 {
		return &Sample{Strata: []StratumSample{st}}
	}
	size := min(k, n)
	st.Values, st.Keys = make([]float64, 0, size), make([]string, 0, size)
	accept := func(e stream.Event) {
		st.Values = append(st.Values, e.Value)
		st.Keys = append(st.Keys, e.Stratum)
	}
	if k >= n {
		for _, e := range events {
			accept(e)
		}
		return &Sample{Strata: []StratumSample{st}}
	}

	lo, hi := s.thresholds(n)
	waitlist := make([]keyed, 0, n/16+8)
	for i, e := range events {
		key := s.rng.Float64()
		switch {
		case key < lo:
			accept(e)
		case key < hi:
			waitlist = append(waitlist, keyed{key: key, i: i})
		}
	}
	if len(st.Values) < k {
		// Sort only the waitlist — this is the step whose cost Spark's
		// thresholds bound but cannot eliminate.
		sortKeyed(waitlist)
		for _, w := range waitlist[:min(k-len(st.Values), len(waitlist))] {
			accept(events[w.i])
		}
	} else if len(st.Values) > k {
		// Thresholding overshot (probability <= delta); trim uniformly.
		s.rng.Shuffle(len(st.Values), func(i, j int) {
			st.Values[i], st.Values[j] = st.Values[j], st.Values[i]
			st.Keys[i], st.Keys[j] = st.Keys[j], st.Keys[i]
		})
		st.Values, st.Keys = st.Values[:k], st.Keys[:k]
	}
	st.Weight = weightFor(st.Count, len(st.Values))
	return &Sample{Strata: []StratumSample{st}}
}
