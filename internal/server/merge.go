package server

import (
	"sort"
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
	parts   []*streamapprox.WindowResult // indexed by shard
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

// offer adds one shard's result for a window and returns any windows the
// contribution completed.
func (m *merger) offer(shard int, wr streamapprox.WindowResult) []firedWindow {
	if m.fired[wr.Start] {
		return nil // straggler for an already-merged window
	}
	pm, ok := m.pending[wr.Start]
	if !ok {
		pm = &pendingMerge{parts: make([]*streamapprox.WindowResult, m.shards), firstAt: m.now()}
		m.pending[wr.Start] = pm
	}
	if pm.parts[shard] == nil {
		pm.got++
	}
	w := wr
	pm.parts[shard] = &w
	if pm.got == m.shards {
		return []firedWindow{m.fire(wr.Start, pm)}
	}
	return nil
}

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
	var out []firedWindow
	for start, pm := range m.pending {
		if !start.Add(m.spec.Window + m.spec.Slide).After(min) {
			out = append(out, m.fire(start, pm))
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].result.Start.Before(out[j].result.Start) })
	m.prune(min)
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
	sort.Slice(out, func(i, j int) bool { return out[i].result.Start.Before(out[j].result.Start) })
	return out
}

func (m *merger) fire(start time.Time, pm *pendingMerge) firedWindow {
	delete(m.pending, start)
	m.fired[start] = true
	parts := make([]*streamapprox.WindowResult, 0, pm.got)
	for _, p := range pm.parts {
		if p != nil {
			parts = append(parts, p)
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

	mean := m.spec.Kind == "mean" || m.spec.Kind == "groupby-mean"
	overall := make([]estimate.Estimate, len(parts))
	weights := make([]int64, len(parts))
	for i, p := range parts {
		overall[i] = toInternal(p.Overall, conf)
		weights[i] = p.Items
	}
	var merged estimate.Estimate
	if mean {
		merged = estimate.MergeMeans(overall, weights)
	} else {
		merged = estimate.MergeSums(overall)
	}
	out.Value, out.Error = merged.Value, merged.Bound

	// Group-by: merge per group key. Under keyed partitioning a stratum
	// lives on exactly one partition, so most keys see a single part;
	// same-key parts from several shards merge with the same algebra,
	// weighted by the per-group item counts the sessions report.
	keys := map[string]bool{}
	for _, p := range parts {
		for k := range p.Groups {
			keys[k] = true
		}
	}
	if len(keys) > 0 {
		out.Groups = make(map[string]PointEstimate, len(keys))
		for k := range keys {
			var ests []estimate.Estimate
			var counts []int64
			for _, p := range parts {
				g, ok := p.Groups[k]
				if !ok {
					continue
				}
				ests = append(ests, toInternal(g, conf))
				counts = append(counts, p.GroupItems[k])
			}
			var ge estimate.Estimate
			if mean {
				ge = estimate.MergeMeans(ests, counts)
			} else {
				ge = estimate.MergeSums(ests)
			}
			out.Groups[k] = PointEstimate{Value: ge.Value, Error: ge.Bound}
		}
	}

	// Histograms share bucket edges across shards: collect each bucket's
	// per-shard estimates and merge once, like the groups above.
	var bucketEsts [][]estimate.Estimate
	for _, p := range parts {
		if len(p.Buckets) == 0 {
			continue
		}
		if out.Buckets == nil {
			out.Buckets = make([]BucketEstimate, len(p.Buckets))
			bucketEsts = make([][]estimate.Estimate, len(p.Buckets))
			for i, b := range p.Buckets {
				out.Buckets[i] = BucketEstimate{Lo: b.Lo, Hi: b.Hi}
			}
		}
		for i, b := range p.Buckets {
			if i >= len(out.Buckets) {
				break
			}
			bucketEsts[i] = append(bucketEsts[i], toInternal(b.Count, conf))
		}
	}
	for i, ests := range bucketEsts {
		sum := estimate.MergeSums(ests)
		out.Buckets[i].Count = PointEstimate{Value: sum.Value, Error: sum.Bound}
	}
	return out
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
