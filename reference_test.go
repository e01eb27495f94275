package streamapprox

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"maps"
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"testing"
	"time"

	"streamapprox/internal/estimate"
	"streamapprox/internal/pane"
	"streamapprox/internal/query"
	"streamapprox/internal/sampling"
	"streamapprox/internal/xrand"
)

// The reference is Session's contract written out as one loop over the
// events, from README ("Panes", "The budget is spent", "Samples are value
// columns") and the paper's Algorithm 3. It shares the keyed draw
// (xrand.At) and the estimator (Summarize, Combine) with the product and
// nothing else: it cuts segments with time.Truncate, keys strata with
// hash/fnv, plans and fills its own reservoirs, and lists each window's
// panes itself.

// refSession is the reference's state: the panes finished so far and the
// one being sampled, the watermark, the late count and what was served.
type refSession struct {
	cfg   SessionConfig
	q     query.Query
	late  int64
	wm    time.Time  // the latest event time taken; zero before any
	head  []Event    // zero-time events taken before any other
	panes []*refPane // finished, oldest first
	cur   *refPane
	fired time.Time // every window ending at or before it has been served
	out   []WindowResult
}

// refPane is one slide segment: its records' reservoirs by stratum and
// what sized them.
type refPane struct {
	start   time.Time
	count   int // its records, a zero-time head included: the next pane's budget is a fraction of it
	budget  int
	seed    uint64   // the interval seed, which keys the reservoirs
	prev    *refPane // the pane finished before it; nil for the first
	big     int      // the plan's size for a stratum that overflowed its share in prev
	strata  map[string]*refReservoir
	summary query.Summary // once finished
}

// refReservoir is one stratum's sample in a pane (Algorithm R).
type refReservoir struct {
	key  uint64
	size int
	seen int64
	vals []float64
}

func newRefSession(cfg SessionConfig) *refSession {
	names := map[Query]string{Sum: "sum", Count: "count", Mean: "mean", GroupBySum: "groupby-sum",
		GroupByMean: "groupby-mean", GroupByCount: "groupby-count", Histogram: "histogram"}
	return &refSession{cfg: cfg, q: query.Named(names[cfg.Query], estimate.Conf95, cfg.HistogramEdges)}
}

// offer takes one event. One behind the watermark is late and dropped. A
// zero-time event before any other joins the first pane. Any other falls
// in the segment time.Truncate cuts on the slide grid; a segment after
// the current one finishes the current pane and starts its own.
func (r *refSession) offer(e Event) {
	switch {
	case e.Time.Before(r.wm):
		r.late++
	case e.Time.IsZero():
		r.head = append(r.head, e)
	default:
		r.wm = e.Time
		if seg := e.Time.Truncate(r.cfg.WindowSlide); r.cur == nil || seg.After(r.cur.start) {
			r.startPane(seg)
		}
		r.cur.count++
		r.cur.add(e)
	}
}

// startPane finishes the current pane, if any, serves every window the
// new pane's start ends, and starts the pane at seg. Its budget is the
// fraction of the finished pane's records, or 64 when that is below one
// item or there is none; at fraction 1 it keeps every record. Its
// interval seed is xrand.At(seed, its start in unix nanos).
func (r *refSession) startPane(seg time.Time) {
	prev := r.cur
	if prev != nil {
		r.finish(prev)
	}
	r.fire(seg)
	budget := 64
	if f := r.cfg.Fraction; f >= 1 {
		budget = math.MaxInt
	} else if prev != nil && int(f*float64(prev.count)) >= 1 {
		budget = int(f * float64(prev.count))
	}
	r.cur = &refPane{start: seg, budget: budget, seed: xrand.At(r.cfg.Seed, uint64(seg.UnixNano())),
		prev: prev, strata: map[string]*refReservoir{}}
	r.cur.big = r.cur.plan()
	for _, e := range r.head {
		r.cur.count++
		r.cur.add(e)
	}
	r.head = nil
}

// plan water-fills the budget over prev's per-stratum records, smallest
// first: a stratum with fewer than an equal part of what is left is
// charged only those, and the strata left split the rest equally.
func (p *refPane) plan() int {
	if p.prev == nil {
		return 0
	}
	var counts []int64
	for _, res := range p.prev.strata {
		counts = append(counts, res.seen)
	}
	slices.Sort(counts)
	left := int64(p.budget)
	for len(counts) > 1 && counts[0]*int64(len(counts)) < left {
		left -= counts[0]
		counts = counts[1:]
	}
	return int(left / int64(len(counts)))
}

// add offers a record to its stratum's reservoir. A reservoir is sized at
// its stratum's first record: an equal share of the budget over the
// strata seen so far, counting no fewer than prev had, and at least one
// item — or the plan's size, where the stratum overflowed that share in
// prev. Its key is the interval seed mixed with the FNV-1a hash of the
// stratum's name. Its t-th record fills slot t-1 while there is one,
// and then takes slot j of a draw j uniform in [0, t) when j is a slot.
func (p *refPane) add(e Event) {
	res := p.strata[e.Stratum]
	if res == nil {
		n := len(p.strata) + 1
		if p.prev != nil {
			n = max(n, len(p.prev.strata))
		}
		size := max(p.budget/n, 1)
		if p.prev != nil {
			if old := p.prev.strata[e.Stratum]; old != nil && old.seen > int64(size) && p.big > size {
				size = p.big
			}
		}
		h := fnv.New64a()
		h.Write([]byte(e.Stratum))
		res = &refReservoir{key: xrand.At(p.seed, h.Sum64()), size: size}
		p.strata[e.Stratum] = res
	}
	res.seen++
	if t := uint64(res.seen); t <= uint64(res.size) {
		res.vals = append(res.vals, e.Value)
	} else if j := refDraw(res.key, t); j < uint64(res.size) {
		res.vals[j] = e.Value
	}
}

// refDraw is a stratum's t-th draw, uniform in [0, t) by Lemire's method:
// the high word of x·t for x the key's t-th value, unless the low word is
// below 2⁶⁴ mod t, and then the same on the values 1, 2, … of the stream
// keyed by the key's ^t-th value, up to the first whose low word is not.
func refDraw(key, t uint64) uint64 {
	j, lo := bits.Mul64(xrand.At(key, t), t)
	for n, redraw := uint64(1), xrand.At(key, ^t); lo < -t%t; n++ {
		j, lo = bits.Mul64(xrand.At(redraw, n), t)
	}
	return j
}

// finish reduces a pane to the query's summary of its weighted sample:
// strata by name, each weighted by its records over its sampled ones
// (Equation 1).
func (r *refSession) finish(p *refPane) {
	var s sampling.Sample
	for _, name := range slices.Sorted(maps.Keys(p.strata)) {
		res := p.strata[name]
		w := 1.0
		if res.seen > int64(len(res.vals)) {
			w = float64(res.seen) / float64(len(res.vals))
		}
		s.Strata = append(s.Strata, sampling.StratumSample{Stratum: name, Values: res.vals, Count: res.seen, Weight: w})
	}
	p.summary = r.q.Summarize(&s)
	r.panes = append(r.panes, p)
}

// close finishes the last pane and serves every window left.
func (r *refSession) close() {
	if r.cur != nil {
		r.finish(r.cur)
		r.cur = nil
	}
	r.fire(time.Date(2200, 1, 1, 0, 0, 0, 0, time.UTC))
}

// fire serves, in start order, every window ending in (fired, limit] that
// covers a finished pane. Windows start on the slide grid; one covers the
// panes that start inside it.
func (r *refSession) fire(limit time.Time) {
	size, slide := r.cfg.WindowSize, r.cfg.WindowSlide
	starts := map[int64]bool{}
	for _, p := range r.panes {
		for s := p.start; s.After(p.start.Add(-size)); s = s.Add(-slide) {
			if end := s.Add(size); end.After(r.fired) && !end.After(limit) {
				starts[s.UnixNano()] = true
			}
		}
	}
	for _, s := range slices.Sorted(maps.Keys(starts)) {
		r.out = append(r.out, r.window(time.Unix(0, s).UTC()))
	}
	r.fired = limit
}

// window combines the summaries of the panes in [start, start+size), in
// start order, and counts their records and samples.
func (r *refSession) window(start time.Time) WindowResult {
	w := WindowResult{Start: start, End: start.Add(r.cfg.WindowSize)}
	var sums []query.Summary
	for _, p := range r.panes {
		if !p.start.Before(w.Start) && p.start.Before(w.End) {
			sums = append(sums, p.summary)
			for _, res := range p.strata {
				w.Items += res.seen
				w.Sampled += len(res.vals)
			}
		}
	}
	var res query.Result
	r.q.Combine(sums, &res)
	est := func(e estimate.Estimate) Estimate {
		return Estimate{Value: e.Value, Bound: e.Bound, Confidence: Confidence(e.Confidence)}
	}
	w.Overall = est(res.Overall)
	if len(res.Groups) > 0 {
		w.Groups = map[string]Estimate{}
		for k, e := range res.Groups {
			w.Groups[k] = est(e)
		}
	}
	for _, b := range res.Buckets {
		w.Buckets = append(w.Buckets, HistogramBucket{Lo: b.Lo, Hi: b.Hi, Count: est(b.Count)})
	}
	return w
}

const refChunkLen = 97

var (
	refSlides = []time.Duration{300 * time.Millisecond, time.Second, 3 * time.Second, 7 * time.Second, 11 * time.Second}
	refKinds  = []Query{Sum, Count, Mean, GroupBySum, GroupByMean, GroupByCount, Histogram}
)

// refConfig is seed's session: each of the 35 (slide, kind) pairs once
// over seeds 0–34, a window of one to three slides and a fixed fraction.
func refConfig(seed int) SessionConfig {
	slide := refSlides[seed%len(refSlides)]
	return SessionConfig{
		Query:          refKinds[seed%len(refKinds)],
		WindowSize:     slide * time.Duration(1+seed%3),
		WindowSlide:    slide,
		Fraction:       0.2 + 0.1*float64(seed%7),
		HistogramEdges: []float64{0, 1, 5, 20, 100, 1000},
		Seed:           uint64(seed + 1),
	}
}

// refStream is seed's stream of about 22 slides: a head of zero to four
// zero-time records, then mostly forward steps, with duplicate times,
// late records up to three slides behind and gaps of two to six slides,
// starting at a random millisecond so segments fall anywhere against the
// second.
func refStream(seed int, slide time.Duration) []Event {
	rng := rand.New(rand.NewSource(int64(seed)))
	strata := []string{"a", "b", "c", "d"}
	scale := []float64{1, 4, 30, 200}
	event := func(t time.Time) Event {
		k := rng.Intn(len(strata))
		return Event{Stratum: strata[k], Value: scale[k] * rng.ExpFloat64(), Time: t}
	}
	var events []Event
	for i := rng.Intn(5); i > 0; i-- {
		events = append(events, event(time.Time{}))
	}
	t := time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC).Add(time.Duration(rng.Int63n(int64(time.Hour))) / time.Millisecond * time.Millisecond)
	step := slide / 40
	for len(events) < 800 {
		switch r := rng.Intn(100); {
		case r < 8:
			events = append(events, event(t.Add(-time.Duration(1+rng.Int63n(int64(3*slide))))))
			continue
		case r < 16: // a duplicate time
		case r < 18:
			t = t.Add(time.Duration(2+rng.Intn(5)) * slide)
		default:
			t = t.Add(time.Duration(rng.Int63n(int64(2 * step))))
		}
		events = append(events, event(t))
	}
	return events
}

// TestSessionMatchesReference feeds each case's stream to a Session in
// 97-record chunks, through Push and through PushBatch, and to the
// reference. After every chunk the windows polled, the late count and
// the snapshot's position, panes and in-flight reservoirs are the
// reference's; after Close every window is, bit for bit.
func TestSessionMatchesReference(t *testing.T) {
	for seed := 0; seed < len(refSlides)*len(refKinds); seed++ {
		cfg := refConfig(seed)
		events := refStream(seed, cfg.WindowSlide)
		for _, batched := range []bool{false, true} {
			label := fmt.Sprintf("seed %d: %v window %v slide %v (batched %v)", seed, cfg.Query, cfg.WindowSize, cfg.WindowSlide, batched)
			s, ref := NewSession(cfg), newRefSession(cfg)
			var got []WindowResult
			for i := 0; i < len(events); i += refChunkLen {
				chunk := events[i:min(i+refChunkLen, len(events))]
				if batched {
					b := batchOf(chunk)
					if err := s.PushBatch(b, 0, b.Len()); err != nil {
						t.Fatal(err)
					}
					b.Release()
				} else {
					for _, e := range chunk {
						if err := s.Push(e); err != nil {
							t.Fatal(err)
						}
					}
				}
				for _, e := range chunk {
					ref.offer(e)
				}
				got = append(got, s.Poll()...)
				requireReferenceWindows(t, fmt.Sprintf("%s chunk %d", label, i/refChunkLen), got, ref.out)
				requireReferenceState(t, fmt.Sprintf("%s chunk %d", label, i/refChunkLen), s, ref)
			}
			ref.close()
			requireReferenceWindows(t, label+" closed", append(got, s.Close()...), ref.out)
		}
	}
}

// requireReferenceWindows demands the reference's windows, each one's
// JSON bytes equal.
func requireReferenceWindows(t *testing.T, label string, got, want []WindowResult) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d windows, the reference %d", label, len(got), len(want))
	}
	for i := range got {
		g, err := json.Marshal(got[i])
		if err != nil {
			t.Fatal(err)
		}
		w, err := json.Marshal(want[i])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(g, w) {
			t.Fatalf("%s: window %d is\n%s\nthe reference's\n%s", label, i, g, w)
		}
	}
}

// requireReferenceState demands that the session's snapshot stand where
// the reference does: its late count, watermark, current segment, fired
// mark, the panes an unfired window covers, the in-flight segment's
// reservoirs, and the previous segment's arrival counts.
func requireReferenceState(t *testing.T, label string, s *Session, ref *refSession) {
	t.Helper()
	snap, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	st, err := pane.Decode(snap)
	if err != nil {
		t.Fatal(err)
	}
	var segStart time.Time
	if ref.cur != nil {
		segStart = ref.cur.start
	}
	if s.Late() != ref.late || st.Late != ref.late || !st.Watermark.Equal(ref.wm) || !st.SegStart.Equal(segStart) ||
		!st.Fired.Equal(ref.fired) {
		t.Fatalf("%s: late %d, watermark %v, segment %v, fired %v; the reference's late %d, watermark %v, segment %v, fired %v",
			label, st.Late, st.Watermark, st.SegStart, st.Fired, ref.late, ref.wm, segStart, ref.fired)
	}
	var kept []*refPane
	for _, p := range ref.panes {
		if p.start.Add(ref.cfg.WindowSize).After(ref.fired) {
			kept = append(kept, p)
		}
	}
	if len(st.Panes) != len(kept) {
		t.Fatalf("%s: %d panes held, the reference %d", label, len(st.Panes), len(kept))
	}
	for i, p := range kept {
		g, err := json.Marshal(st.Panes[i].Summary)
		if err != nil {
			t.Fatal(err)
		}
		w, err := json.Marshal(p.summary)
		if err != nil {
			t.Fatal(err)
		}
		if !st.Panes[i].Start.Equal(p.start) || !bytes.Equal(g, w) {
			t.Fatalf("%s: pane %d at %v is\n%s\nthe reference's at %v\n%s", label, i, st.Panes[i].Start, g, p.start, w)
		}
	}
	if ref.cur == nil {
		return
	}
	if st.Sampler == nil || len(st.Sampler.Reservoirs) != len(ref.cur.strata) {
		t.Fatalf("%s: in-flight sampler %+v, the reference has %d strata", label, st.Sampler, len(ref.cur.strata))
	}
	prev := map[string]int64{}
	if p := ref.cur.prev; p != nil {
		for name, res := range p.strata {
			prev[name] = res.seen
		}
	}
	if !maps.Equal(st.Sampler.Prev, prev) {
		t.Fatalf("%s: previous segment's counts %v, the reference's %v", label, st.Sampler.Prev, prev)
	}
	for name, res := range ref.cur.strata {
		g := st.Sampler.Reservoirs[name]
		if g.Capacity != res.size || g.Seen != res.seen || !slices.Equal(g.Values, res.vals) {
			t.Fatalf("%s: stratum %s reservoir %+v, the reference's capacity %d seen %d values %v", label, name, g, res.size, res.seen, res.vals)
		}
	}
}
