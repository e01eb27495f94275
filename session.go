package streamapprox

import (
	"errors"
	"slices"
	"time"

	"streamapprox/internal/adaptive"
	"streamapprox/internal/query"
	"streamapprox/internal/sampling"
	"streamapprox/internal/stream"
	"streamapprox/internal/xrand"
)

// SessionConfig configures an incremental Session.
type SessionConfig struct {
	// Query is the per-window aggregate (default Sum).
	Query Query
	// WindowSize and WindowSlide configure the sliding window (defaults
	// 10s / 5s; a size that is not a whole number of slides is rounded
	// up to one).
	WindowSize  time.Duration
	WindowSlide time.Duration
	// Fraction is the initial sampling fraction (default 0.6). A value
	// outside (0, 1], NaN included, also means 0.6.
	Fraction float64
	// TargetError, when positive, enables the adaptive feedback
	// mechanism (§4.2.1): if a window's relative error bound exceeds
	// TargetError, the sampling fraction is increased for subsequent
	// windows; when comfortably below it, the fraction decays to reclaim
	// throughput.
	TargetError float64
	// Confidence is the error-bound level (default Confidence95).
	Confidence Confidence
	// HistogramEdges defines the bucket edges for the Histogram query
	// (ignored otherwise).
	HistogramEdges []float64
	// Seed makes the session reproducible (default 1).
	Seed uint64
}

// Session processes an unbounded stream incrementally: Push events in
// event-time order, collect completed windows from Poll (or all of them
// from Close). Each slide segment is sampled on-the-fly with OASRS; the
// per-segment budget is the previous segment's arrival count times the
// current sampling fraction, and it is spent: every stratum gets an equal
// share of it as capacity, and what a stratum with fewer arrivals than
// that left unused in the previous segment goes to the strata that
// overflowed theirs. While per-stratum arrivals repeat from one segment
// to the next, Sampled/Items of a window is the fraction; when the small
// strata of one segment grow in the next, that segment samples up to the
// slots they had left empty more. A finished segment is reduced at once
// to a pane — the per-stratum sufficient statistics of its sample — and
// a window is estimated from the panes it covers, so no sampled row
// outlives its segment.
//
// Session is not safe for concurrent use.
type Session struct {
	cfg        SessionConfig
	q          query.Query
	sampler    *sampling.OASRS
	rng        *xrand.Rand
	controller *adaptive.Controller

	segStart  time.Time
	segCount  int
	lastCount int
	windows   query.Windows   // the finished segments' panes
	sums      []query.Summary // fireWindow's argument buffer
	ready     []WindowResult
	watermark time.Time
	late      int64
	closed    bool

	// Cached bounds of the current slide segment in unix nanos, so the
	// common in-order event (and PushBatch's run loop) skips the
	// time.Truncate per record. Valid only when segBoundsOK: segments
	// starting at the zero time (or outside the unix-nano range) fall
	// back to the Truncate path.
	segStartN   int64
	segEndN     int64
	segBoundsOK bool

	// leader is the session whose sampler this one follows (nil while it
	// samples for itself); followers are the sessions following this one.
	leader    *Session
	followers []*Session
	lateOff   int64 // a follower's late drops beyond its leader's
}

// ErrClosedSession is returned by Push after Close.
var ErrClosedSession = errors.New("streamapprox: session closed")

// NewSession returns a ready Session.
func NewSession(cfg SessionConfig) *Session {
	if cfg.WindowSize <= 0 {
		cfg.WindowSize = 10 * time.Second
	}
	if cfg.WindowSlide <= 0 {
		cfg.WindowSlide = 5 * time.Second
	}
	windows := query.NewWindows(cfg.WindowSize, cfg.WindowSlide)
	cfg.WindowSize = windows.Size()
	if !(cfg.Fraction > 0 && cfg.Fraction <= 1) {
		cfg.Fraction = 0.6
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.Query == 0 {
		cfg.Query = Sum
	}
	s := &Session{
		cfg:     cfg,
		q:       cfg.Query.internal(cfg.Confidence.internal(), cfg.HistogramEdges),
		rng:     xrand.New(cfg.Seed),
		windows: windows,
	}
	if cfg.TargetError > 0 {
		s.controller = adaptive.NewController(cfg.TargetError, cfg.Fraction)
	}
	return s
}

// Fraction returns the session's current sampling fraction (moved by the
// adaptive controller when TargetError is set).
func (s *Session) Fraction() float64 {
	if s.controller != nil {
		return s.controller.Fraction()
	}
	return s.cfg.Fraction
}

// Late returns the number of dropped late events.
func (s *Session) Late() int64 { return s.late }

// Follow makes s sample through leader: every record pushed to leader
// reaches s too, sampled once, and each segment leader finishes becomes a
// pane of s. A pane's summary is computed once per distinct shape among
// the group's queries (see query.SummarizesAlike) and shared read-only by
// every member that summarises alike; the others summarise the sample
// through their own query. It reports whether s follows: only sessions
// with the same slide and fixed fraction (no TargetError), open, not
// chained, and at the same point of the stream — watermark, segment
// start, segment count, previous segment count — can, and s must follow
// nobody yet. A follower is the session it would be with a copy of its
// leader's sampler (what Snapshot writes and Unfollow makes it); its own
// sampler and seed go unused. Each query keeps its marginal distribution
// and bound, but the two are no longer independent. Pushing, closing or
// advancing a follower past its leader unfollows it first.
func (s *Session) Follow(leader *Session) bool {
	l := leader
	if l == nil || l == s || l.leader != nil || s.leader != nil || len(s.followers) > 0 || s.closed || l.closed ||
		!s.fixed() || !l.fixed() || s.cfg.WindowSlide != l.cfg.WindowSlide || s.cfg.Fraction != l.cfg.Fraction ||
		!s.watermark.Equal(l.watermark) || !s.segStart.Equal(l.segStart) ||
		s.segCount != l.segCount || s.lastCount != l.lastCount {
		return false
	}
	s.leader, s.sampler, s.lateOff = l, nil, s.late-l.late
	l.followers = append(l.followers, s)
	return true
}

// Unfollow ends Follow: s gets a sampler of its own, a copy of its
// leader's with the leader's random state, and samples for itself from
// the same point on. It does nothing to a session that follows nobody.
func (s *Session) Unfollow() {
	l := s.leader
	if l == nil {
		return
	}
	l.followers = slices.DeleteFunc(l.followers, func(f *Session) bool { return f == s })
	s.leader = nil
	s.rng.SetState(l.rng.State())
	if l.sampler != nil {
		s.sampler = sampling.RestoreOASRS(l.sampler.State(), nil, s.rng)
	}
	s.cacheSegBounds()
}

// leave makes s and every session following it sample for themselves.
func (s *Session) leave() {
	s.Unfollow()
	for len(s.followers) > 0 {
		s.followers[0].Unfollow()
	}
}

// fixed reports whether s's sampler is all its sampling state.
func (s *Session) fixed() bool {
	return s.controller == nil
}

// lead brings s's followers to s's point of the stream after a call that
// moved it.
func (s *Session) lead() {
	for _, f := range s.followers {
		f.watermark, f.segStart, f.segCount, f.lastCount = s.watermark, s.segStart, s.segCount, s.lastCount
		f.late = s.late + f.lateOff
	}
}

// Push offers one event. Events must arrive in non-decreasing event-time
// order; events behind the watermark are counted and dropped.
func (s *Session) Push(e Event) error {
	if s.closed {
		return ErrClosedSession
	}
	s.Unfollow()
	defer s.lead()
	if e.Time.Before(s.watermark) {
		s.late++
		return nil
	}
	// Fast path: an event inside the cached segment bounds needs no
	// Truncate and no segment transition. The range check rejects the
	// zero time (its UnixNano is far outside any cached segment).
	if !s.segBoundsOK || e.Time.UnixNano() < s.segStartN || e.Time.UnixNano() >= s.segEndN {
		seg := e.Time.Truncate(s.cfg.WindowSlide)
		if s.segStart.IsZero() {
			s.startSegment(seg)
		} else if seg.After(s.segStart) {
			s.finishSegment()
			s.startSegment(seg)
		}
	}
	s.segCount++
	s.sampler.Add(stream.Event(e))
	if e.Time.After(s.watermark) {
		s.watermark = e.Time
	}
	return nil
}

// EventBatch is the pooled columnar record batch of the vectorized
// serving tier (see internal/stream): interned stratum IDs, dense value
// and unix-nano time columns. NewEventBatch draws one from the shared
// pool with a single reference held by the caller.
type EventBatch = stream.EventBatch

// NewEventBatch returns an empty pooled batch (Release returns it).
func NewEventBatch() *EventBatch { return stream.GetEventBatch() }

// PushBatch offers records [from, to) of a columnar batch, equivalent
// to pushing each record through Push in order but vectorized: the
// batch is segmented into runs of records that fall inside the current
// slide segment and ahead of the watermark, so the window-boundary
// computation happens once per run instead of once per record, and each
// run is bulk-offered to the sampler via OASRS.AddBatch.
//
// The batch is treated as read-only; callers sharing one batch across
// sessions Retain/Release around the call.
func (s *Session) PushBatch(b *EventBatch, from, to int) error {
	if s.closed {
		return ErrClosedSession
	}
	s.Unfollow()
	defer s.lead()
	if from < 0 {
		from = 0
	}
	if to > b.Len() {
		to = b.Len()
	}
	// Watermark in unix nanos; the zero watermark (drops nothing) maps
	// below every representable time.
	wmN := int64(stream.ZeroTimeNanos)
	if !s.watermark.IsZero() {
		wmN = s.watermark.UnixNano()
	}
	advanced := false
	flushWM := func() {
		if advanced {
			s.watermark = time.Unix(0, wmN).UTC()
			advanced = false
		}
	}
	for i := from; i < to; {
		tn := b.Times[i]
		if tn < wmN {
			// Late — the zero-time sentinel lands here too once a real
			// watermark exists, exactly as the scalar path drops it.
			s.late++
			i++
			continue
		}
		if tn == stream.ZeroTimeNanos {
			// Zero-time record against a zero watermark: scalar edge
			// semantics for the remainder.
			flushWM()
			for ; i < to; i++ {
				if err := s.Push(Event(b.EventAt(i))); err != nil {
					return err
				}
			}
			return nil
		}
		if !s.segBoundsOK || tn < s.segStartN || tn >= s.segEndN {
			t := time.Unix(0, tn).UTC()
			seg := t.Truncate(s.cfg.WindowSlide)
			if s.segStart.IsZero() {
				s.startSegment(seg)
			} else if seg.After(s.segStart) {
				s.finishSegment()
				s.startSegment(seg)
			}
		}
		if !s.segBoundsOK {
			// Segment bounds not representable in nanos: per-record path.
			flushWM()
			if err := s.Push(Event(b.EventAt(i))); err != nil {
				return err
			}
			if !s.watermark.IsZero() {
				wmN = s.watermark.UnixNano()
			}
			i++
			continue
		}
		// The run: consecutive records that are neither late nor past
		// the segment end — exactly the records the scalar loop would
		// add to the current sampler without a segment transition.
		j, endN := i, s.segEndN
		for j < to {
			v := b.Times[j]
			if v < wmN || v >= endN {
				break
			}
			if v > wmN {
				wmN = v
				advanced = true
			}
			j++
		}
		s.segCount += j - i
		s.sampler.AddBatch(b, i, j)
		i = j
	}
	flushWM()
	return nil
}

// Poll returns windows completed so far and clears the ready list.
func (s *Session) Poll() []WindowResult {
	out := s.ready
	s.ready = nil
	return out
}

// Advance moves the session's event-time watermark to now without
// consuming an event — a punctuation/heartbeat for push-based serving.
// It finishes the in-flight slide segment when now has moved past it and
// fires every pending window that can no longer receive events (end at
// or before now's segment start). Subsequent events older than now are
// dropped as late. Advance lets a served shard flush windows on an idle
// or gappy partition by adopting the progress of its peers.
func (s *Session) Advance(now time.Time) {
	if s.closed {
		return
	}
	if now.After(s.watermark) {
		s.Unfollow() // a follower cannot move its leader
		s.watermark = now
	}
	seg := now.Truncate(s.cfg.WindowSlide)
	if !s.segStart.IsZero() && seg.After(s.segStart) {
		s.finishSegment()
		s.startSegment(seg)
	}
	// Events in the current segment [seg, seg+slide) may still belong to
	// windows ending inside it, so only windows ending at or before seg
	// are complete.
	s.windows.Fire(seg, s.fireWindow)
	s.lead()
	for _, f := range s.followers {
		f.windows.Fire(seg, f.fireWindow)
	}
}

// Close flushes the in-progress segment and all pending windows and
// returns every remaining result. Further Push calls fail. A leader's
// followers first get samplers of their own (Unfollow), so closing it
// leaves their windows untouched.
func (s *Session) Close() []WindowResult {
	if s.closed {
		return nil
	}
	s.leave()
	s.closed = true
	if !s.segStart.IsZero() {
		s.finishSegment()
	}
	s.windows.Flush(s.fireWindow)
	out := s.ready
	s.ready = nil
	return out
}

func (s *Session) startSegment(seg time.Time) {
	s.segStart = seg
	s.segCount = 0
	s.cacheSegBounds()
	budget := sampling.SegmentBudget(s.Fraction(), s.lastCount)
	if s.sampler == nil {
		s.sampler = sampling.NewOASRS(budget, nil, s.rng)
		return
	}
	s.sampler.SetBudget(budget)
}

// cacheSegBounds caches the current segment's bounds in unix nanos for
// the Push fast path and PushBatch's run loop. The round-trip check
// rejects segments whose UnixNano is undefined (the zero time, or times
// outside years 1678–2262).
func (s *Session) cacheSegBounds() {
	seg := s.segStart
	end := seg.Add(s.cfg.WindowSlide)
	s.segStartN, s.segEndN = seg.UnixNano(), end.UnixNano()
	s.segBoundsOK = !seg.IsZero() && s.segStartN < s.segEndN &&
		time.Unix(0, s.segStartN).Equal(seg) && time.Unix(0, s.segEndN).Equal(end)
}

// finishSegment drains the segment's sample into a pane of s and a pane of
// every follower.
func (s *Session) finishSegment() {
	var sum query.Summary
	s.sampler.Drain(func(sample *sampling.Sample) {
		sum = s.q.Summarize(sample)
		for i, f := range s.followers {
			f.windows.Add(s.segStart, s.followerSummary(i, sample, sum))
		}
	})
	s.lastCount = s.segCount
	s.windows.Add(s.segStart, sum)
	// Every window that ended at or before the segment end is complete.
	end := s.segStart.Add(s.cfg.WindowSlide)
	s.windows.Fire(end, s.fireWindow)
	for _, f := range s.followers {
		f.windows.Fire(end, f.fireWindow)
	}
}

// followerSummary is follower i's summary of the sample s drains, sum
// being s's own: the summary of the first member before it — s, then the
// followers in order, whose panes of sample are their last — that
// summarises sample alike, or its own query's when none does. A summary is
// shared, not copied: nothing writes into a Summary after Summarize —
// Windows.Fire and fireWindow read panes, Snapshot encodes them,
// RestoreSession decodes fresh ones, and the server's merger sees only
// WindowResults.
func (s *Session) followerSummary(i int, sample *sampling.Sample, sum query.Summary) query.Summary {
	q := s.followers[i].q
	if query.SummarizesAlike(s.q, q, sample) {
		return sum
	}
	for _, f := range s.followers[:i] {
		if query.SummarizesAlike(f.q, q, sample) {
			return f.windows.Last().Summary
		}
	}
	return q.Summarize(sample)
}

// fireWindow converts one window's panes to its WindowResult.
func (s *Session) fireWindow(start time.Time, panes []query.Pane) {
	wr := WindowResult{Start: start, End: start.Add(s.cfg.WindowSize)}
	s.sums = s.sums[:0]
	for i := range panes {
		s.sums = append(s.sums, panes[i].Summary)
		wr.Items += panes[i].Summary.TotalCount()
		wr.Sampled += panes[i].Summary.SampledCount()
	}
	res := s.q.Combine(s.sums)
	clear(s.sums)
	wr.Overall = fromInternalEstimate(res.Overall)
	if len(res.Groups) > 0 {
		wr.Groups = make(map[string]Estimate, len(res.Groups))
		for k, v := range res.Groups {
			wr.Groups[k] = fromInternalEstimate(v)
		}
		wr.GroupItems = make(map[string]int64, len(res.Groups))
		for i := range panes {
			for _, st := range panes[i].Summary.Strata {
				wr.GroupItems[st.Stratum] += st.Count
			}
		}
	}
	if len(res.Buckets) > 0 {
		wr.Buckets = make([]HistogramBucket, len(res.Buckets))
		for i, b := range res.Buckets {
			wr.Buckets[i] = HistogramBucket{Lo: b.Lo, Hi: b.Hi, Count: fromInternalEstimate(b.Count)}
		}
	}
	s.ready = append(s.ready, wr)
	// Adaptive feedback: grow the fraction when the bound is too loose,
	// decay it when comfortably tight (§4.2.1).
	if s.controller != nil {
		s.controller.Observe(wr.Overall.RelativeError())
	}
}
