package streamapprox

import (
	"errors"
	"fmt"
	"time"

	"streamapprox/internal/adaptive"
	"streamapprox/internal/pane"
	"streamapprox/internal/query"
	"streamapprox/internal/sampling"
	"streamapprox/internal/stream"
)

// SessionConfig configures an incremental Session.
type SessionConfig struct {
	// Query is the per-window aggregate (default Sum).
	Query Query
	// WindowSize and WindowSlide configure the sliding window (defaults
	// 10s / 5s; a size that is not a whole number of slides is rounded
	// up to one, or down where rounding up would overflow).
	WindowSize  time.Duration
	WindowSlide time.Duration
	// Fraction is the initial sampling fraction (default 0.6): below 1, a
	// fraction of the previous slide segment's arrivals; at 1, every
	// event, so the session serves Exact's windows. A value outside
	// (0, 1], NaN included, also means 0.6.
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
// slide segment is sampled on-the-fly with OASRS. Below fraction 1 the
// per-segment budget is the previous segment's arrival count times the
// current sampling fraction (64 before any count is known), so a rising
// rate samples less than the fraction; fraction 1 keeps every event and
// serves Exact's windows. The budget is spent: every stratum gets an
// equal share of it as capacity, and what a stratum with fewer arrivals
// than that left unused in the previous segment goes to the strata that
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
	ps         *pane.Sampler // cuts and samples the segments
	controller *adaptive.Controller
	windows    query.Windows // the finished segments' panes
	ready      []WindowResult
	closed     bool
	one        *EventBatch // Push's one-record batch
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
		ps:      pane.NewSampler(cfg.WindowSlide, cfg.Fraction, cfg.Seed),
		windows: windows,
	}
	if cfg.TargetError > 0 {
		s.setController(cfg.Fraction)
	}
	return s
}

// setController starts the adaptive controller at fraction, which the
// sampler then samples at.
func (s *Session) setController(fraction float64) {
	s.controller = adaptive.NewController(s.cfg.TargetError, fraction)
	s.ps.SetFraction(s.controller.Fraction())
}

// Fraction returns the session's current sampling fraction (moved by the
// adaptive controller when TargetError is set).
func (s *Session) Fraction() float64 { return s.ps.Fraction() }

// Late returns the number of dropped late events.
func (s *Session) Late() int64 { return s.ps.Late() }

// Watermark returns the latest event time the session has taken, or
// Advance moved it to: events before it are late. It is the zero time
// before any.
func (s *Session) Watermark() time.Time { return stream.TimeFromNanos(s.ps.Watermark()) }

// Push offers one event: PushBatch over a one-record batch the session
// owns. Events must arrive in non-decreasing event-time order; events
// behind the watermark are counted and dropped. A time outside the range
// of unix nanos (years 1678–2262) is an error and changes nothing.
func (s *Session) Push(e Event) error {
	n, ok := stream.UnixNanos(e.Time)
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
	s.ps.Push(b, from, to, s.cut)
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
// When now is past the in-flight slide segment, it finishes that segment
// and starts now's, which fires every window ending at or before now's
// segment start. Subsequent events older than now are dropped as late.
func (s *Session) Advance(now time.Time) {
	if n, ok := stream.UnixNanos(now); ok && !s.closed {
		s.ps.Advance(n, s.cut)
	}
}

// Close flushes the in-progress segment and all pending windows and
// returns every remaining result. Further Push calls fail.
func (s *Session) Close() []WindowResult {
	if s.closed {
		return nil
	}
	s.closed = true
	s.ps.Close(s.cut)
	s.windows.Flush(s.fireWindow)
	out := s.ready
	s.ready = nil
	return out
}

// cut files a finished segment's sample as a pane and fires every window
// ending at or before the next segment's start: no event can reach one any
// more. It is the one place a window fires before Close.
func (s *Session) cut(start int64, sample *sampling.Sample, next int64) {
	if sample != nil {
		s.windows.Add(stream.TimeFromNanos(start), s.q.Summarize(sample))
	}
	s.windows.Fire(stream.TimeFromNanos(next), s.fireWindow)
}

// fireWindow converts one window's panes to its WindowResult and feeds a
// TargetError session's adaptive controller its relative error bound
// (§4.2.1).
func (s *Session) fireWindow(start time.Time, panes []query.Pane) {
	wr := windowResult(s.windows.Estimate(s.q, start, panes))
	s.ready = append(s.ready, wr)
	if s.controller != nil {
		s.ps.SetFraction(s.controller.Observe(wr.Overall.RelativeError()))
	}
}
