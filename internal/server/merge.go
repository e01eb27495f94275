package server

import (
	"slices"
	"strings"
	"time"

	"streamapprox"
	"streamapprox/internal/estimate"
)

// The merger combines per-shard window results into one served result
// per window. Shards own disjoint partitions, so their windows cover
// disjoint slices of the stream and merge with the disjoint-population
// algebra of internal/estimate on the variance and degrees of freedom
// each part carries: totals add values and variances, means weight parts
// by observed item counts (estimate.MergeSums/MergeMeans).
//
// A window fires as soon as every shard has contributed, or — for idle
// or sparsely keyed partitions that will never contribute — once every
// shard's event-time watermark has passed the window end by a full
// slide, at which point no shard can still deliver a part for it.

// PointEstimate is one served estimate: value ± error at a confidence
// level.
type PointEstimate struct {
	Value float64 `json:"value"`
	Error float64 `json:"error"`
}

// BucketEstimate is one served histogram bucket.
type BucketEstimate struct {
	Lo    float64       `json:"lo"`
	Hi    float64       `json:"hi"`
	Count PointEstimate `json:"count"`
}

// MergedWindow is one per-window result merged across all shards — the
// unit streamed to subscribers and returned from /results.
type MergedWindow struct {
	Seq        int64                    `json:"seq"`
	Query      string                   `json:"query"`
	Start      time.Time                `json:"start"`
	End        time.Time                `json:"end"`
	Value      float64                  `json:"value"`
	Error      float64                  `json:"error"`
	Confidence string                   `json:"confidence"`
	Items      int64                    `json:"items"`
	Sampled    int                      `json:"sampled"`
	Shards     int                      `json:"shards"`
	Groups     map[string]PointEstimate `json:"groups,omitempty"`
	Buckets    []BucketEstimate         `json:"buckets,omitempty"`
}

// pendingMerge accumulates per-shard parts for one window start.
type pendingMerge struct {
	parts   []streamapprox.WindowResult // indexed by shard, valid where have is set
	have    []bool
	got     int
	firstAt time.Time // wall clock of the first part, for merge latency
}

// merger is the per-query fan-in. It is not safe for concurrent use;
// the job serializes access under its own lock.
type merger struct {
	spec    *Spec
	shards  int
	pending map[time.Time]*pendingMerge
	marks   []time.Time // per-shard event-time watermark
	fired   map[time.Time]bool
	now     func() time.Time
	// one and out back the slices offer and advance return, which are
	// valid until the next call.
	one [1]firedWindow
	out []firedWindow
}

func newMerger(spec *Spec, shards int, now func() time.Time) *merger {
	if now == nil {
		now = time.Now
	}
	return &merger{
		spec:    spec,
		shards:  shards,
		pending: make(map[time.Time]*pendingMerge),
		marks:   make([]time.Time, shards),
		fired:   make(map[time.Time]bool),
		now:     now,
	}
}

// mergeLatency is the wall-clock age of a fired window's oldest part.
type firedWindow struct {
	result  MergedWindow
	latency time.Duration
}

// offer adds one shard's result for a window and returns the window if
// the contribution completed it.
func (m *merger) offer(shard int, wr streamapprox.WindowResult) []firedWindow {
	if m.fired[wr.Start] {
		return nil // straggler for an already-merged window
	}
	pm, ok := m.pending[wr.Start]
	if !ok {
		pm = m.newPending(m.now())
		m.pending[wr.Start] = pm
	}
	if !pm.have[shard] {
		pm.have[shard] = true
		pm.got++
	}
	pm.parts[shard] = wr
	if pm.got == m.shards {
		m.one[0] = m.fire(wr.Start, pm)
		return m.one[:]
	}
	return nil
}

func (m *merger) newPending(firstAt time.Time) *pendingMerge {
	return &pendingMerge{
		parts:   make([]streamapprox.WindowResult, m.shards),
		have:    make([]bool, m.shards),
		firstAt: firstAt,
	}
}

// byStart orders fired windows oldest first.
func byStart(a, b firedWindow) int { return a.result.Start.Compare(b.result.Start) }

// advance records a shard's event-time watermark and fires every pending
// window that no shard can still contribute to: end + slide at or before
// the minimum watermark (one slide of slack because a session only emits
// a window once event time enters a later segment). Only a move of that
// minimum can fire or prune anything, so the pending windows are walked
// only then.
func (m *merger) advance(shard int, mark time.Time) []firedWindow {
	if !mark.After(m.marks[shard]) {
		return nil
	}
	prev := m.minMark()
	m.marks[shard] = mark
	min := m.minMark()
	if min.IsZero() || !min.After(prev) {
		return nil
	}
	out := m.out[:0]
	for start, pm := range m.pending {
		if !start.Add(m.spec.Window + m.spec.Slide).After(min) {
			out = append(out, m.fire(start, pm))
		}
	}
	slices.SortFunc(out, byStart)
	m.prune(min)
	if m.out = out; len(out) == 0 {
		return nil
	}
	return out
}

// minMark is the lowest shard watermark.
func (m *merger) minMark() time.Time {
	min := m.marks[0]
	for _, t := range m.marks[1:] {
		if t.Before(min) {
			min = t
		}
	}
	return min
}

// flush fires every pending window regardless of completeness — the
// end-of-life path when a query is deleted.
func (m *merger) flush() []firedWindow {
	out := make([]firedWindow, 0, len(m.pending))
	for start, pm := range m.pending {
		out = append(out, m.fire(start, pm))
	}
	slices.SortFunc(out, byStart)
	return out
}

func (m *merger) fire(start time.Time, pm *pendingMerge) firedWindow {
	delete(m.pending, start)
	m.fired[start] = true
	var buf [8]*streamapprox.WindowResult
	parts := buf[:0]
	for i := range pm.parts {
		if pm.have[i] {
			parts = append(parts, &pm.parts[i])
		}
	}
	return firedWindow{
		result:  m.mergeParts(start, parts),
		latency: m.now().Sub(pm.firstAt),
	}
}

// prune drops fired-window bookkeeping that can no longer see
// stragglers: anything older than the minimum watermark by more than a
// window plus two slides.
func (m *merger) prune(min time.Time) {
	horizon := min.Add(-(m.spec.Window + 2*m.spec.Slide))
	for start := range m.fired {
		if start.Before(horizon) {
			delete(m.fired, start)
		}
	}
}

// mergeParts combines the contributing shards' results for one window.
func (m *merger) mergeParts(start time.Time, parts []*streamapprox.WindowResult) MergedWindow {
	conf := internalConfidence(m.spec.confidence())
	out := MergedWindow{
		Start:      start,
		End:        start.Add(m.spec.Window),
		Confidence: conf.String(),
		Shards:     len(parts),
	}
	for _, p := range parts {
		out.Items += p.Items
		out.Sampled += p.Sampled
	}

	// Stack scratch for the estimates and weights each merge combines:
	// a window has a handful of shards.
	var estBuf [8]estimate.Estimate
	var weightBuf [8]int64
	ests, weights := estBuf[:0], weightBuf[:0]
	mean := m.spec.Kind == "mean" || m.spec.Kind == "groupby-mean"
	merge := func() PointEstimate {
		var e estimate.Estimate
		if mean {
			e = estimate.MergeMeans(ests, weights)
		} else {
			e = estimate.MergeSums(ests)
		}
		return PointEstimate{Value: e.Value, Error: e.Bound}
	}
	for _, p := range parts {
		ests = append(ests, toInternal(p.Overall, conf))
		weights = append(weights, p.Items)
	}
	overall := merge()
	out.Value, out.Error = overall.Value, overall.Error

	// Group-by: merge per group key. Under keyed partitioning a stratum
	// lives on exactly one partition, so most keys see a single part;
	// same-key parts from several shards merge with the same algebra,
	// weighted by the per-group item counts the sessions report. The
	// (key, part) pairs sorted by key and then by part combine each key's
	// parts in shard order.
	var pairBuf [32]groupPart
	pairs := pairBuf[:0]
	for i, p := range parts {
		for k := range p.Groups {
			pairs = append(pairs, groupPart{key: k, part: i})
		}
	}
	if len(pairs) > 0 {
		slices.SortFunc(pairs, func(a, b groupPart) int {
			if c := strings.Compare(a.key, b.key); c != 0 {
				return c
			}
			return a.part - b.part
		})
		out.Groups = make(map[string]PointEstimate)
		for i := 0; i < len(pairs); {
			k := pairs[i].key
			ests, weights = ests[:0], weights[:0]
			for ; i < len(pairs) && pairs[i].key == k; i++ {
				p := parts[pairs[i].part]
				ests = append(ests, toInternal(p.Groups[k], conf))
				weights = append(weights, p.GroupItems[k])
			}
			out.Groups[k] = merge()
		}
	}

	// Histograms share bucket edges across shards: each bucket of the
	// first part that has buckets sums that bucket across the parts.
	if f := slices.IndexFunc(parts, func(p *streamapprox.WindowResult) bool { return len(p.Buckets) > 0 }); f >= 0 {
		out.Buckets = make([]BucketEstimate, len(parts[f].Buckets))
		for i, b := range parts[f].Buckets {
			ests = ests[:0]
			for _, p := range parts {
				if i < len(p.Buckets) {
					ests = append(ests, toInternal(p.Buckets[i].Count, conf))
				}
			}
			sum := estimate.MergeSums(ests)
			out.Buckets[i] = BucketEstimate{Lo: b.Lo, Hi: b.Hi, Count: PointEstimate{Value: sum.Value, Error: sum.Bound}}
		}
	}
	return out
}

// groupPart is one group key of one part.
type groupPart struct {
	key  string
	part int // index into the window's parts, which are in shard order
}

// toInternal is the internal form of a shard's estimate: the variance and
// degrees of freedom it carries, which the merge algebra combines.
func toInternal(e streamapprox.Estimate, conf estimate.Confidence) estimate.Estimate {
	return estimate.Estimate{Value: e.Value, Variance: e.Variance, DF: e.DF, Bound: e.Bound, Confidence: conf}
}

// internalConfidence converts the public confidence enum.
func internalConfidence(c streamapprox.Confidence) estimate.Confidence {
	switch c {
	case streamapprox.Confidence68:
		return estimate.Conf68
	case streamapprox.Confidence997:
		return estimate.Conf997
	default:
		return estimate.Conf95
	}
}
