package core

import (
	"slices"
	"sync"
	"time"

	"streamapprox/internal/query"
	"streamapprox/internal/sampling"
	"streamapprox/internal/stream"
	"streamapprox/internal/xrand"
)

// runPipelined executes the pipelined (Flink-like) systems: the stream is
// fanned out over `Workers` operator-chain replicas; each replica hosts a
// sampling operator (§4.2.2) that processes items one at a time and emits
// one pane per slide segment ("the sampling operations are performed ...
// at every slide window interval in the Flink-based StreamApprox", §5.5).
// The replicas' panes are windowed after the run, in (segment, replica)
// order.
func runPipelined(cfg Config, events []stream.Event) (*RunStats, error) {
	rng := xrand.New(cfg.Seed)
	ops := make([]*samplingOperator, cfg.Workers)
	feeds := make([]chan []stream.Event, cfg.Workers)
	var wg sync.WaitGroup
	for i := range ops {
		op := &samplingOperator{
			slide:    cfg.WindowSlide,
			fraction: cfg.Fraction,
			native:   cfg.System.IsNative(),
			q:        cfg.Query,
			rng:      rng.Split(),
		}
		// A channel of size one: backpressure is the feeder blocking.
		feed := make(chan []stream.Event, 1)
		ops[i], feeds[i] = op, feed
		wg.Add(1)
		go func() {
			defer wg.Done()
			for chunk := range feed {
				for _, e := range chunk {
					op.add(e)
				}
			}
			op.flush()
		}()
	}

	// The feeder deals events round-robin, so replica i receives every
	// n-th event in time order, and hands each replica its events a chunk
	// at a time.
	bufs := make([][]stream.Event, len(feeds))
	for r := range bufs {
		bufs[r] = make([]stream.Event, 0, chunkSize)
	}
	for i, e := range events {
		r := i % len(feeds)
		bufs[r] = append(bufs[r], e)
		if len(bufs[r]) == chunkSize {
			feeds[r] <- bufs[r]
			bufs[r] = make([]stream.Event, 0, chunkSize)
		}
	}
	for r, feed := range feeds {
		if len(bufs[r]) > 0 {
			feed <- bufs[r]
		}
		close(feed)
	}
	wg.Wait()

	var panes []query.Pane
	for _, op := range ops {
		panes = append(panes, op.panes...)
	}
	// Stable: a segment's panes stay in replica order.
	slices.SortStableFunc(panes, func(a, b query.Pane) int { return a.Start.Compare(b.Start) })
	w := newWindows(cfg)
	for _, p := range panes {
		w.Add(p.Start, p.Summary)
	}
	return &RunStats{Results: w.flush()}, nil
}

// chunkSize is the transport's buffer: operators still see items one at
// a time and in order, but a replica receives them in chunks — the
// analogue of Flink's network buffers, which pipeline records through
// fixed-size buffers rather than paying a handoff per record.
const chunkSize = 128

// samplingOperator is the Flink sampling operator of §4.2.2. In native
// mode it retains every item (exact, weight 1); otherwise it runs OASRS
// over each slide segment. Either way items are consumed on the fly and
// nothing is forwarded downstream — each segment's sample leaves as a
// pane, its summary for the query.
type samplingOperator struct {
	slide    time.Duration
	fraction float64
	native   bool
	q        query.Query
	rng      *xrand.Rand
	panes    []query.Pane

	segStart  time.Time
	sampler   *sampling.OASRS
	exact     []stream.Event
	count     int
	lastCount int
}

// add processes one item.
func (o *samplingOperator) add(e stream.Event) {
	seg := e.Time.Truncate(o.slide)
	if o.segStart.IsZero() {
		o.startSegment(seg)
	} else if seg.After(o.segStart) {
		o.finishSegment()
		o.startSegment(seg)
	}
	o.count++
	if o.native {
		o.exact = append(o.exact, e)
		return
	}
	o.sampler.Add(e)
}

// flush finishes the last segment at the end of the stream.
func (o *samplingOperator) flush() {
	if !o.segStart.IsZero() {
		o.finishSegment()
	}
}

func (o *samplingOperator) startSegment(seg time.Time) {
	o.segStart = seg
	o.count = 0
	if o.native {
		o.exact = nil
		return
	}
	// OASRS adapts per segment exactly as the cost function re-runs per
	// interval (Algorithm 2). The sampler instance persists across
	// segments so its per-stratum sizing tracks the observed sub-stream
	// set.
	budget := sampling.SegmentBudget(o.fraction, o.lastCount)
	if o.sampler == nil {
		o.sampler = sampling.NewOASRS(budget, nil, o.rng)
		return
	}
	o.sampler.SetBudget(budget)
}

func (o *samplingOperator) finishSegment() {
	var s *sampling.Sample
	if o.native {
		s = exactSample(o.exact)
		o.exact = nil
	} else {
		s = o.sampler.Finish()
	}
	o.lastCount = o.count
	// The items that survive sampling flow to the aggregation operator
	// and pay the per-record processing cost there (all items, for the
	// native system). The operator chain is already one parallel replica,
	// so the job runs serially here.
	for i := range s.Strata {
		_ = runJobSerial(s.Strata[i].Stratum, s.Strata[i].Values)
	}
	o.panes = append(o.panes, query.Pane{Start: o.segStart, Summary: o.q.Summarize(s)})
}
