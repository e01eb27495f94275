// Package query defines the approximate linear queries StreamApprox
// supports (§3.2): SUM, COUNT, MEAN, histograms, and per-stratum group-by
// aggregates, all evaluated over weighted samples with rigorous error
// bounds from internal/estimate.
//
// A Query is evaluated once per sliding-window interval (Algorithm 2):
// the engine samples the interval's items, and the query turns the
// weighted sample into a Result — in two steps. Summarize reduces one
// interval's sample to per-stratum sufficient statistics; Combine
// estimates from the summaries of however many consecutive intervals a
// window spans. Eq. 6 and Eq. 9 are sums of independent per-stratum
// terms, so a window assembled from slide-sized intervals (see Windows)
// runs the estimator one sample of the whole window would.
package query

import (
	"fmt"
	"slices"
	"sort"

	"streamapprox/internal/estimate"
	"streamapprox/internal/sampling"
)

// Kind enumerates the built-in aggregate kinds.
type Kind int

// Supported aggregates.
const (
	KindSum Kind = iota + 1
	KindCount
	KindMean
	KindHistogram
)

// String returns the aggregate's name.
func (k Kind) String() string {
	switch k {
	case KindSum:
		return "sum"
	case KindCount:
		return "count"
	case KindMean:
		return "mean"
	case KindHistogram:
		return "histogram"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Result is the output of one query evaluation over one window: the
// overall estimate, plus per-group estimates for group-by queries, plus
// per-bucket estimates for histogram queries.
type Result struct {
	Kind    Kind
	Overall estimate.Estimate
	Groups  map[string]estimate.Estimate
	Buckets []HistogramBucket
}

// Summary is one interval's weighted sample reduced to what Combine
// reads. It holds numbers and stratum keys only — no sampled row.
type Summary struct {
	// Strata has one entry per sample entry, in the sample's order. SUM
	// and MEAN kinds fill every moment; COUNT kinds and histograms only
	// the counts and the weight.
	Strata []StratumSummary `json:"strata"`
	// Groups is set only by a group-by over a sample with mixed-strata
	// entries (a stratum-blind sampler): the entries regrouped by row
	// stratum. When nil, Strata are the groups.
	Groups []StratumSummary `json:"groups,omitempty"`
	// Hits is set only by Histogram: for entry i, Hits[i*B : (i+1)*B]
	// counts its sampled rows per bucket (B buckets).
	Hits []int32 `json:"hits,omitempty"`
}

// StratumSummary is one stratum entry's sufficient statistics.
type StratumSummary struct {
	Stratum string `json:"k"`
	estimate.Moments
}

// TotalCount returns ΣCi over the summarised sample.
func (s *Summary) TotalCount() int64 {
	var total int64
	for i := range s.Strata {
		total += s.Strata[i].Count
	}
	return total
}

// SampledCount returns ΣYi over the summarised sample.
func (s *Summary) SampledCount() int {
	var total int64
	for i := range s.Strata {
		total += s.Strata[i].N
	}
	return int(total)
}

// Query evaluates an aggregate over weighted samples.
type Query interface {
	// Name identifies the query in logs and experiment output.
	Name() string
	// Summarize reduces one interval's sample to its Summary. It keeps
	// no reference to the sample or its rows.
	Summarize(s *sampling.Sample) Summary
	// Combine computes the approximate result over consecutive
	// intervals' summaries, given in time order.
	Combine(sums []Summary) Result
}

// summarize builds the per-entry statistics a kind reads.
func summarize(kind Kind, s *sampling.Sample) []StratumSummary {
	out := make([]StratumSummary, len(s.Strata))
	for i := range s.Strata {
		st := &s.Strata[i]
		out[i].Stratum = st.Stratum
		if kind.values() {
			out[i].Moments = estimate.ValueMoments(st)
		} else {
			out[i].Moments = estimate.CountMoments(st)
		}
	}
	return out
}

// values reports whether a kind's summary holds value moments, not only
// counts.
func (k Kind) values() bool { return k == KindSum || k == KindMean }

// SummarizesAlike reports whether b.Summarize(s) equals a.Summarize(s),
// so that one Summary of s serves both queries. SUM and MEAN kinds, whole
// stream or per group, fill value moments; COUNT kinds count moments; a
// histogram fills count moments and its buckets' hits, so it is alike only
// with a histogram on equal edges. Confidence enters Combine alone. A
// sample entry carrying Keys (a stratum-blind sampler's) is regrouped by
// a GroupBy's summary only, so with one in s no two queries are alike; nor
// is a Query not built in this package alike with any.
func SummarizesAlike(a, b Query, s *sampling.Sample) bool {
	ka, ea := shapeOf(a)
	kb, eb := shapeOf(b)
	return ka != 0 && ka == kb && slices.Equal(ea, eb) && !slices.ContainsFunc(s.Strata, mixedStrata)
}

// shapeOf names what q's Summarize computes from a stratified sample:
// value moments (KindSum), count moments (KindCount), or count moments and
// the hits of the buckets edges define (KindHistogram); 0 for a Query not
// built here.
func shapeOf(q Query) (Kind, []float64) {
	var kind Kind
	switch q := q.(type) {
	case *Aggregate:
		kind = q.kind
	case *GroupBy:
		kind = q.kind
	case *Histogram:
		return KindHistogram, q.edges
	default:
		return 0, nil
	}
	if kind.values() {
		return KindSum, nil
	}
	return KindCount, nil
}

// cellRoom is how many of a window's cells Combine lines up in a stack
// buffer; a window with more allocates them.
const cellRoom = 32

// room returns n cells, in buf when they fit.
func room(n int, buf *[cellRoom]estimate.Moments) []estimate.Moments {
	if n > cellRoom {
		return make([]estimate.Moments, n)
	}
	return buf[:n]
}

// moments lines the summaries' entries up in order, in buf when they fit.
func moments(sums []Summary, buf *[cellRoom]estimate.Moments) []estimate.Moments {
	n := 0
	for i := range sums {
		n += len(sums[i].Strata)
	}
	ms := room(n, buf)[:0]
	for i := range sums {
		for j := range sums[i].Strata {
			ms = append(ms, sums[i].Strata[j].Moments)
		}
	}
	return ms
}

// strataOf keys the entries moments(sums) lines up by their strata.
func strataOf(sums []Summary) func(int) string {
	return func(k int) string {
		for i := range sums {
			if k < len(sums[i].Strata) {
				return sums[i].Strata[k].Stratum
			}
			k -= len(sums[i].Strata)
		}
		return ""
	}
}

// oneStratum keys cells that all belong to one group.
func oneStratum(int) string { return "" }

// estimateOf estimates a kind over a window's cells, key naming each
// cell's stratum for pooling.
func estimateOf(kind Kind, ms []estimate.Moments, key func(int) string, conf estimate.Confidence) estimate.Estimate {
	switch kind {
	case KindSum:
		return estimate.SumOf(ms, estimate.PoolStrata(ms, key), conf)
	case KindMean:
		return estimate.MeanOf(ms, estimate.PoolStrata(ms, key), conf)
	default:
		return estimate.CountOf(ms, conf)
	}
}

// Aggregate is a whole-stream aggregate (SUM/COUNT/MEAN over all items
// from all sub-streams).
type Aggregate struct {
	kind Kind
	conf estimate.Confidence
}

// NewSum returns a query computing the approximate sum of all items.
func NewSum(conf estimate.Confidence) *Aggregate { return &Aggregate{kind: KindSum, conf: conf} }

// NewCount returns a query computing the total item count.
func NewCount(conf estimate.Confidence) *Aggregate { return &Aggregate{kind: KindCount, conf: conf} }

// NewMean returns a query computing the approximate mean of all items.
func NewMean(conf estimate.Confidence) *Aggregate { return &Aggregate{kind: KindMean, conf: conf} }

var _ Query = (*Aggregate)(nil)

// Name implements Query.
func (a *Aggregate) Name() string { return a.kind.String() }

// Summarize implements Query.
func (a *Aggregate) Summarize(s *sampling.Sample) Summary {
	return Summary{Strata: summarize(a.kind, s)}
}

// Combine implements Query.
func (a *Aggregate) Combine(sums []Summary) Result {
	var buf [cellRoom]estimate.Moments
	return Result{Kind: a.kind, Overall: estimateOf(a.kind, moments(sums, &buf), strataOf(sums), a.conf)}
}

// GroupBy aggregates per stratum: e.g. "total traffic size per protocol"
// (§6.2) or "mean trip distance per borough" (§6.3). Each group's estimate
// is computed over the single-stratum restriction of the sample.
type GroupBy struct {
	kind Kind
	conf estimate.Confidence
}

// NewGroupBySum returns a per-stratum SUM query.
func NewGroupBySum(conf estimate.Confidence) *GroupBy { return &GroupBy{kind: KindSum, conf: conf} }

// NewGroupByMean returns a per-stratum MEAN query.
func NewGroupByMean(conf estimate.Confidence) *GroupBy { return &GroupBy{kind: KindMean, conf: conf} }

// NewGroupByCount returns a per-stratum COUNT query.
func NewGroupByCount(conf estimate.Confidence) *GroupBy { return &GroupBy{kind: KindCount, conf: conf} }

var _ Query = (*GroupBy)(nil)

// Name implements Query.
func (g *GroupBy) Name() string { return "groupby-" + g.kind.String() }

// Summarize implements Query.
//
// Groups are formed from the *items'* strata, not from the sample-entry
// keys. For stratified samplers the two coincide (Keys is nil), but a
// stratum-blind sampler (simple random sampling) reports one
// pseudo-stratum holding a mixed-strata sample; its per-group population
// counts are unknown and estimated by the expansion estimator (weight ×
// items seen in the group), which is exactly why SRS group estimates are
// noisier and can miss rare groups entirely (§5.7).
func (g *GroupBy) Summarize(s *sampling.Sample) Summary {
	sum := Summary{Strata: summarize(g.kind, s)}
	if !slices.ContainsFunc(s.Strata, mixedStrata) {
		return sum
	}
	for i := range s.Strata {
		st := &s.Strata[i]
		if !mixedStrata(*st) {
			sum.Groups = append(sum.Groups, sum.Strata[i])
			continue
		}
		// Mixed-strata entry: explode by item stratum with expansion
		// counts.
		byKey := make(map[string][]float64)
		for j, key := range st.Keys {
			byKey[key] = append(byKey[key], st.Values[j])
		}
		keys := make([]string, 0, len(byKey))
		for key := range byKey {
			keys = append(keys, key)
		}
		sort.Strings(keys)
		for _, key := range keys {
			vals := byKey[key]
			count := int64(st.Weight*float64(len(vals)) + 0.5)
			sum.Groups = append(sum.Groups, StratumSummary{key, estimate.MomentsOf(count, st.Weight, vals)})
		}
	}
	return sum
}

// mixedStrata reports whether the entry's items carry their own strata
// (never true for stratified samplers).
func mixedStrata(st sampling.StratumSample) bool { return st.Keys != nil }

// Combine implements Query.
//
// The summaries may carry several entries with the same stratum key (one
// per micro-batch or slide segment); all entries of a key are estimated
// together as independent sub-samples of that group, lined up
// contiguously and in time order in one buffer.
func (g *GroupBy) Combine(sums []Summary) Result {
	entries := func(i int) []StratumSummary {
		if sums[i].Groups != nil {
			return sums[i].Groups
		}
		return sums[i].Strata
	}
	span := make(map[string][2]int) // key → its entries' offset in cells and their count
	n := 0
	for i := range sums {
		for _, e := range entries(i) {
			sp := span[e.Stratum]
			sp[1]++
			span[e.Stratum] = sp
			n++
		}
	}
	at := 0
	for key, sp := range span {
		span[key] = [2]int{at, 0}
		at += sp[1]
	}
	var cellBuf, overallBuf [cellRoom]estimate.Moments
	cells := room(n, &cellBuf)
	for i := range sums {
		for _, e := range entries(i) {
			sp := span[e.Stratum]
			cells[sp[0]+sp[1]] = e.Moments
			sp[1]++
			span[e.Stratum] = sp
		}
	}
	groups := make(map[string]estimate.Estimate, len(span))
	for key, sp := range span {
		groups[key] = estimateOf(g.kind, cells[sp[0]:sp[0]+sp[1]], oneStratum, g.conf)
	}
	return Result{Kind: g.kind, Overall: estimateOf(g.kind, moments(sums, &overallBuf), strataOf(sums), g.conf), Groups: groups}
}

// HistogramBucket is one bucket of an approximate histogram.
type HistogramBucket struct {
	Lo, Hi float64
	Count  estimate.Estimate
}

// Histogram estimates the count of items per value bucket — a family of
// indicator-function linear queries (§3.2).
type Histogram struct {
	edges []float64
	conf  estimate.Confidence
}

// NewHistogram returns a histogram query over the buckets defined by the
// sorted edge values: bucket i covers [edges[i], edges[i+1]).
func NewHistogram(edges []float64, conf estimate.Confidence) *Histogram {
	sorted := make([]float64, len(edges))
	copy(sorted, edges)
	sort.Float64s(sorted)
	return &Histogram{edges: sorted, conf: conf}
}

var _ Query = (*Histogram)(nil)

// Name implements Query.
func (h *Histogram) Name() string { return "histogram" }

// buckets returns the number of buckets the edges define.
func (h *Histogram) buckets() int { return max(len(h.edges)-1, 0) }

// Fits reports whether a summary (one read back from a snapshot, say)
// carries the bucket counts Combine indexes.
func (h *Histogram) Fits(sum *Summary) bool {
	return len(sum.Hits) == len(sum.Strata)*h.buckets()
}

// Summarize implements Query: one pass over the values finds every
// value's bucket.
func (h *Histogram) Summarize(s *sampling.Sample) Summary {
	nb := h.buckets()
	sum := Summary{Strata: summarize(KindHistogram, s), Hits: make([]int32, len(s.Strata)*nb)}
	for i := range s.Strata {
		hits := sum.Hits[i*nb : (i+1)*nb]
		for _, v := range s.Strata[i].Values {
			if b := h.bucketOf(v); b >= 0 {
				hits[b]++
			}
		}
	}
	return sum
}

// bucketOf returns the bucket holding v (the last edge at or below v
// opens it), or -1 when v lies outside every bucket.
func (h *Histogram) bucketOf(v float64) int {
	lo, hi := 0, len(h.edges) // edges[:lo] <= v < edges[hi:]
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if h.edges[mid] <= v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == len(h.edges) {
		return -1 // at or past the last edge (or no edges); before the first, lo-1 is -1 too
	}
	return lo - 1
}

// Combine implements Query: the overall estimate is the total COUNT and
// Buckets carries the per-bucket counts. A bucket's count is the linear
// query Σ 1[lo <= v < hi]; an entry's moments for it follow in closed
// form from its hit count, so no row is revisited.
func (h *Histogram) Combine(sums []Summary) Result {
	var buf, indicatorBuf [cellRoom]estimate.Moments
	ms := moments(sums, &buf)
	res := Result{Kind: KindHistogram, Overall: estimate.CountOf(ms, h.conf)}
	nb := h.buckets()
	if nb == 0 {
		return res
	}
	res.Buckets = make([]HistogramBucket, nb)
	indicator := room(len(ms), &indicatorBuf)
	for b := range res.Buckets {
		k := 0
		for i := range sums {
			for j := range sums[i].Strata {
				indicator[k] = estimate.IndicatorMoments(ms[k].Count, ms[k].Weight, ms[k].N, int64(sums[i].Hits[j*nb+b]))
				k++
			}
		}
		res.Buckets[b] = HistogramBucket{Lo: h.edges[b], Hi: h.edges[b+1], Count: estimateOf(KindSum, indicator, strataOf(sums), h.conf)}
	}
	return res
}
