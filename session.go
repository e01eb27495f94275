package streamapprox

import (
	"errors"
	"fmt"
	"math"
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

// Session processes an unbounded stream incrementally: Push events (or
// PushBatch them) in event-time order, collect completed windows from Poll
// (or all of them from Close). A window fires when the slide segment after
// it starts — the first event, or Advance, at or past its end — so an
// event-time gap never holds a finished window; its bounds are UTC. Each
// slide segment is sampled on-the-fly with OASRS; the
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

	// The current slide segment [segStart, segEnd) and the watermark, in
	// unix nanos; stream.ZeroTimeNanos is "none" for both. phase is the
	// Unix epoch's offset into its segment, so segments are cut where
	// time.Truncate cuts: from the zero time, not the epoch.
	segStart, segEnd int64
	wm               int64
	phase            int64
	segCount         int
	lastCount        int
	windows          query.Windows // the finished segments' panes
	ready            []WindowResult
	late             int64
	closed           bool
	handing          bool        // Panes was called
	one              *EventBatch // Push's one-record batch

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
	epoch := time.Unix(0, 0)
	s := &Session{
		cfg:      cfg,
		q:        cfg.Query.internal(cfg.Confidence.internal(), cfg.HistogramEdges),
		rng:      xrand.New(cfg.Seed),
		windows:  windows,
		segStart: stream.ZeroTimeNanos,
		segEnd:   stream.ZeroTimeNanos,
		wm:       stream.ZeroTimeNanos,
		phase:    int64(epoch.Sub(epoch.Truncate(cfg.WindowSlide))),
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

// Watermark returns the latest event time the session has taken, or
// Advance moved it to: events before it are late. It is the zero time
// before any.
func (s *Session) Watermark() time.Time { return stream.TimeFromNanos(s.wm) }

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
		s.wm != l.wm || s.segStart != l.segStart ||
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
		f.wm, f.segStart, f.segEnd, f.segCount, f.lastCount = s.wm, s.segStart, s.segEnd, s.segCount, s.lastCount
		f.late = s.late + f.lateOff
	}
}

// Push offers one event: PushBatch over a one-record batch the session
// owns. Events must arrive in non-decreasing event-time order; events
// behind the watermark are counted and dropped. A time outside the range
// of unix nanos (years 1678–2262) is an error and changes nothing.
func (s *Session) Push(e Event) error {
	n, ok := unixNanos(e.Time)
	if !ok {
		return fmt.Errorf("streamapprox: event time %v outside the unix-nano range", e.Time)
	}
	if s.one == nil {
		s.one = new(EventBatch)
	}
	b := s.one // its one stratum is ID 0: no intern map to reset
	b.Strata, b.Values, b.Times = append(b.Strata[:0], 0), append(b.Values[:0], e.Value), append(b.Times[:0], n)
	b.Dict = append(b.Dict[:0], e.Stratum)
	return s.PushBatch(b, 0, 1)
}

// unixNanos returns t in unix nanos, stream.ZeroTimeNanos for the zero
// time, and whether t is either.
func unixNanos(t time.Time) (int64, bool) {
	n := stream.TimeToNanos(t)
	return n, t.IsZero() || (n != stream.ZeroTimeNanos && time.Unix(0, n).Equal(t))
}

// EventBatch is the pooled columnar record batch of the vectorized
// serving tier (see internal/stream): interned stratum IDs, dense value
// and unix-nano time columns. NewEventBatch draws one from the shared
// pool with a single reference held by the caller.
type EventBatch = stream.EventBatch

// NewEventBatch returns an empty pooled batch (Release returns it).
func NewEventBatch() *EventBatch { return stream.GetEventBatch() }

// PushBatch offers records [from, to) of a columnar batch in order. It
// cuts the range into runs of records that fall inside the current slide
// segment and at or after the watermark, so the window-boundary check
// happens once per run, and bulk-offers each run to the sampler via
// OASRS.AddBatch. A record ahead of the current segment starts the next
// one, which fires every window ending at or before that segment's start;
// a record whose segment does not fit in unix nanos is counted late.
//
// The batch is treated as read-only; callers sharing one batch across
// sessions Retain/Release around the call.
func (s *Session) PushBatch(b *EventBatch, from, to int) error {
	if s.closed {
		return ErrClosedSession
	}
	s.Unfollow()
	defer s.lead()
	from, to = max(from, 0), min(to, b.Len())
	for i := from; i < to; {
		tn := b.Times[i]
		if tn < s.wm {
			s.late++ // the zero time lands here too once a watermark exists
			i++
			continue
		}
		if tn >= s.segEnd {
			seg, ok := s.segmentOf(tn)
			if !ok {
				s.late++
				i++
				continue
			}
			if s.segStart != stream.ZeroTimeNanos {
				s.finishSegment()
			}
			s.startSegment(seg)
		}
		// The run: record i and the records after it that are neither
		// late nor past the segment end. The zero time's segment ends
		// where it starts, so a zero-time record is a run of its own.
		j, wm, end := i+1, tn, s.segEnd
		for j < to && b.Times[j] >= wm && b.Times[j] < end {
			wm = b.Times[j]
			j++
		}
		s.wm = wm
		s.segCount += j - i
		s.sampler.AddBatch(b, i, j)
		i = j
	}
	return nil
}

// segmentOf returns the start of the slide segment holding unix-nano time
// n, where time.Truncate would cut it: the zero time's is itself. ok is
// false when the segment or its end does not fit in unix nanos.
func (s *Session) segmentOf(n int64) (seg int64, ok bool) {
	if n == stream.ZeroTimeNanos {
		return n, true
	}
	slide := int64(s.cfg.WindowSlide)
	r := n % slide
	if r < 0 {
		r += slide
	}
	if r >= slide-s.phase {
		r -= slide - s.phase
	} else {
		r += s.phase
	}
	if n <= math.MinInt64+r || n-r > math.MaxInt64-slide {
		return 0, false
	}
	return n - r, true
}

// Poll returns windows completed so far and clears the ready list.
func (s *Session) Poll() []WindowResult {
	out := s.ready
	s.ready = nil
	return out
}

// Advance moves the session's event-time watermark to now without
// consuming an event — a punctuation/heartbeat for push-based serving.
// When now is past the in-flight slide segment, it finishes that segment
// and starts now's, which fires every window ending at or before now's
// segment start. Subsequent events older than now are dropped as late.
// Advance lets a served shard flush windows on an idle partition by
// adopting the progress of its peers.
func (s *Session) Advance(now time.Time) {
	n, ok := unixNanos(now)
	if s.closed || !ok || n <= s.wm {
		return
	}
	s.Unfollow() // a follower cannot move its leader
	defer s.lead()
	s.wm = n
	if seg, ok := s.segmentOf(n); ok && n >= s.segEnd && s.segStart != stream.ZeroTimeNanos {
		s.finishSegment()
		s.startSegment(seg)
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
	if s.segStart != stream.ZeroTimeNanos {
		s.finishSegment()
	}
	if !s.handing {
		s.windows.Flush(s.fireWindow)
	}
	out := s.ready
	s.ready = nil
	return out
}

// startSegment starts the segment at seg. No event can reach a window
// ending at or before seg any more, so every such window fires here — the
// one place a window fires before Close.
func (s *Session) startSegment(seg int64) {
	s.setSegment(seg)
	s.segCount = 0
	start := stream.TimeFromNanos(seg)
	s.fire(start)
	for _, f := range s.followers {
		f.fire(start)
	}
	budget := sampling.SegmentBudget(s.Fraction(), s.lastCount)
	if s.sampler == nil {
		s.sampler = sampling.NewOASRS(budget, nil, s.rng)
		return
	}
	s.sampler.SetBudget(budget)
}

// fire fires the windows ending at or before limit, unless the caller
// takes the panes.
func (s *Session) fire(limit time.Time) {
	if !s.handing {
		s.windows.Fire(limit, s.fireWindow)
	}
}

// Panes hands over the panes the session finished since the last call,
// oldest first, and from the first call on leaves the windows to the
// caller: Poll and Close return none, and the adaptive controller sees
// only what ObserveError feeds it. The slice is valid until the next call
// that moves the session or its leader; the summaries are read-only, as
// sessions following one leader may share them.
func (s *Session) Panes() []query.Pane {
	s.handing = true
	out := s.windows.Panes
	s.windows.Panes = out[:0]
	return out
}

// ObserveError feeds a TargetError session's adaptive controller the
// relative error bound a window was served with (§4.2.1).
func (s *Session) ObserveError(relErr float64) {
	if s.controller != nil {
		s.controller.Observe(relErr)
	}
}

// setSegment makes the segment at seg the current one. The zero time's
// ends where it starts: any record ends it.
func (s *Session) setSegment(seg int64) {
	s.segStart, s.segEnd = seg, seg+int64(s.cfg.WindowSlide)
	if seg == stream.ZeroTimeNanos {
		s.segEnd = seg
	}
}

// finishSegment drains the segment's sample into a pane of s and a pane of
// every follower.
func (s *Session) finishSegment() {
	start := stream.TimeFromNanos(s.segStart)
	var sum query.Summary
	s.sampler.Drain(func(sample *sampling.Sample) {
		sum = s.q.Summarize(sample)
		for i, f := range s.followers {
			f.windows.Add(start, s.followerSummary(i, sample, sum))
		}
	})
	s.lastCount = s.segCount
	s.windows.Add(start, sum)
}

// followerSummary is follower i's summary of the sample s drains, sum
// being s's own: the summary of the first member before it — s, then the
// followers in order, whose panes of sample are their last — that
// summarises sample alike, or its own query's when none does. A summary is
// shared, not copied: nothing writes into a Summary after Summarize —
// Windows.Fire and fireWindow read panes, Snapshot encodes them,
// RestoreSession decodes fresh ones, and a caller taking them through
// Panes combines them as they are.
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
	wr := windowResult(s.windows.Estimate(s.q, start, panes))
	s.ready = append(s.ready, wr)
	s.ObserveError(wr.Overall.RelativeError())
}
