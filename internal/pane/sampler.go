// Package pane is the sampling half of a session (§3.2): a Sampler cuts
// an event-time ordered stream into slide segments and samples each
// on-the-fly with OASRS, and a Snapshot is a session's serialized form —
// the Sampler's state beside the session's configuration and finished
// panes — which streamapprox.RestoreSession and the served shards both
// read. What a segment's sample is summarised to is the caller's: one
// Sampler feeds a library Session's query, a served shard's, or every
// member of a sampling group.
package pane

import (
	"math"
	"time"

	"streamapprox/internal/sampling"
	"streamapprox/internal/stream"
	"streamapprox/internal/xrand"
)

// Sampler cuts an event-time ordered stream into slide segments where
// time.Truncate cuts them and samples each with OASRS. The per-segment
// budget is the previous segment's arrival count times the fraction in
// force, and unbounded at fraction 1, which keeps every record
// (sampling.SegmentBudget); that count is the OASRS sampler's history,
// the one the plan of its strata reads. Records behind the watermark are
// counted late and dropped. A finished segment's sample goes to the
// caller's Cut; the Sampler keeps no pane.
//
// A segment's OASRS interval seed is xrand.At(seed, start): a function of
// the Sampler's seed and the segment's start in unix nanos, not of the
// segments before it. So a segment's sample depends on its records, the
// seed, its start and the previous segment's arrival counts, which plan
// its budget — not on how much the Sampler sampled before.
//
// Sampler is not safe for concurrent use.
type Sampler struct {
	slide    int64
	phase    int64 // the Unix epoch's offset into its segment
	fraction float64
	seed     uint64
	oasrs    *sampling.OASRS // nil before the first segment

	// The current segment [segStart, segEnd) and the watermark, in unix
	// nanos; stream.ZeroTimeNanos is "none" for both. The zero time's
	// segment ends where it starts: any record ends it.
	segStart, segEnd, wm int64
	late                 int64
}

// Cut receives what a Sampler cuts: the weighted sample of the finished
// segment at start — nil when none finished, the stream's first segment
// starting — valid until Cut returns, and the start of the segment that
// follows it. It runs before the next segment's budget is drawn, so a
// fraction it sets applies to that segment.
type Cut func(start int64, s *sampling.Sample, next int64)

// NewSampler returns a Sampler cutting segments of slide, sampling at
// fraction with its segments keyed by seed.
func NewSampler(slide time.Duration, fraction float64, seed uint64) *Sampler {
	epoch := time.Unix(0, 0)
	return &Sampler{
		slide:    int64(slide),
		phase:    int64(epoch.Sub(epoch.Truncate(slide))),
		fraction: fraction,
		seed:     seed,
		segStart: stream.ZeroTimeNanos,
		segEnd:   stream.ZeroTimeNanos,
		wm:       stream.ZeroTimeNanos,
	}
}

// Fraction returns the sampling fraction the next segment's budget is
// drawn at.
func (p *Sampler) Fraction() float64 { return p.fraction }

// SetFraction sets the sampling fraction for the segments still to start.
func (p *Sampler) SetFraction(f float64) { p.fraction = f }

// Late returns the number of records dropped as late.
func (p *Sampler) Late() int64 { return p.late }

// Watermark returns the latest event time taken, or advanced to, in unix
// nanos (stream.ZeroTimeNanos before any).
func (p *Sampler) Watermark() int64 { return p.wm }

// Push offers records [from, to) of a columnar batch in order. It cuts
// the range into runs of records that fall inside the current segment and
// at or after the watermark, so the segment check happens once per run,
// and bulk-offers each run to OASRS. A record ahead of the current
// segment finishes it and starts its own; a record whose segment does not
// fit in unix nanos is counted late. The batch is read-only.
func (p *Sampler) Push(b *stream.EventBatch, from, to int, cut Cut) {
	from, to = max(from, 0), min(to, b.Len())
	times := b.Times[:to] // the run scan below indexes it with no bounds check
	for i := from; i < to; {
		tn := times[i]
		if tn < p.wm {
			p.late++ // the zero time lands here too once a watermark exists
			i++
			continue
		}
		if tn >= p.segEnd {
			seg, ok := p.SegmentOf(tn)
			if !ok {
				p.late++
				i++
				continue
			}
			p.start(seg, cut)
		}
		// The run: record i and the records after it that are neither
		// late nor past the segment end. The zero time's segment ends
		// where it starts, so a zero-time record is a run of its own.
		j, wm, end := i+1, tn, p.segEnd
		for j < to && times[j] >= wm && times[j] < end { // per record
			wm = times[j]
			j++
		}
		p.wm = wm
		p.oasrs.AddBatch(b, i, j)
		i = j
	}
}

// Advance moves the watermark to unix-nano time n without a record. Past
// the current segment it finishes that segment and starts n's.
func (p *Sampler) Advance(n int64, cut Cut) {
	if n <= p.wm {
		return
	}
	p.wm = n
	if seg, ok := p.SegmentOf(n); ok && n >= p.segEnd && p.segStart != stream.ZeroTimeNanos {
		p.start(seg, cut)
	}
}

// Close finishes the current segment, if one started: the end of the
// stream. Its Cut gets the segment's end as the next segment's start.
func (p *Sampler) Close(cut Cut) {
	if p.segStart != stream.ZeroTimeNanos {
		p.finish(cut, p.segEnd)
	}
}

// start finishes the current segment, if one started, and starts the one
// at seg with its budget and seed. Zero-time records sampled before the
// first segment join its sample, keyed by its seed.
func (p *Sampler) start(seg int64, cut Cut) {
	if p.segStart != stream.ZeroTimeNanos {
		p.finish(cut, seg)
	} else {
		cut(stream.ZeroTimeNanos, nil, seg)
	}
	p.setSegment(seg)
	_, last := p.arrivals()
	budget := sampling.SegmentBudget(p.fraction, int(last))
	if p.oasrs == nil {
		p.oasrs = sampling.NewKeyedOASRS(budget, nil, p.segmentSeed(seg))
		return
	}
	p.oasrs.SetBudget(budget)
	p.oasrs.SetSeed(p.segmentSeed(seg))
}

// segmentSeed is the OASRS interval seed of the segment at seg.
func (p *Sampler) segmentSeed(seg int64) uint64 { return xrand.At(p.seed, uint64(seg)) }

// finish drains the current segment's sample into cut.
func (p *Sampler) finish(cut Cut, next int64) {
	start := p.segStart
	p.oasrs.Drain(func(s *sampling.Sample) { cut(start, s, next) })
}

// arrivals returns the current and the previous segment's arrival counts.
func (p *Sampler) arrivals() (current, last int64) {
	if p.oasrs == nil {
		return 0, 0
	}
	return p.oasrs.Arrivals()
}

// setSegment makes the segment at seg the current one.
func (p *Sampler) setSegment(seg int64) {
	p.segStart, p.segEnd = seg, seg+p.slide
	if seg == stream.ZeroTimeNanos {
		p.segEnd = seg
	}
}

// SegmentOf returns the start of the slide segment holding unix-nano time
// n, where time.Truncate would cut it: the zero time's is itself. ok is
// false when the segment or its end does not fit in unix nanos.
func (p *Sampler) SegmentOf(n int64) (seg int64, ok bool) {
	if n == stream.ZeroTimeNanos {
		return n, true
	}
	r := n % p.slide
	if r < 0 {
		r += p.slide
	}
	if r >= p.slide-p.phase {
		r -= p.slide - p.phase
	} else {
		r += p.phase
	}
	if n <= math.MinInt64+r || n-r > math.MaxInt64-p.slide {
		return 0, false
	}
	return n - r, true
}

// SamePoint reports whether p and o stand at one point of the stream with
// interchangeable samplers: the same slide and fraction, watermark,
// segment, and this and the previous segment's arrival counts stratum by
// stratum, as their OASRS samplers hold them (sampling.OASRS.SameArrivals).
// From such a point, o's sample of what follows is one p could have drawn.
func (p *Sampler) SamePoint(o *Sampler) bool {
	return p.slide == o.slide && p.fraction == o.fraction && p.wm == o.wm &&
		p.segStart == o.segStart && p.oasrs.SameArrivals(o.oasrs)
}

// Copy returns a Sampler in p's state, seed included, that samples on
// independently: from here on it draws what p draws.
func (p *Sampler) Copy() *Sampler {
	c := *p
	if p.oasrs != nil {
		c.oasrs = sampling.RestoreOASRS(p.oasrs.State(), p.segmentSeed(p.segStart))
	}
	return &c
}
