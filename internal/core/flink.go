package core

import (
	"context"
	"sort"
	"sync"
	"time"

	"streamapprox/internal/pipeline"
	"streamapprox/internal/sampling"
	"streamapprox/internal/stream"
	"streamapprox/internal/xrand"
)

// runPipelined executes the pipelined (Flink-like) systems: the stream is
// fanned out over `Workers` operator-chain replicas; each replica hosts a
// sampling operator (§4.2.2) that processes items one at a time and emits
// one sub-sample per slide segment ("the sampling operations are
// performed ... at every slide window interval in the Flink-based
// StreamApprox", §5.5). Segment sub-samples are merged into windows after
// the run.
func runPipelined(cfg Config, events []stream.Event) (*RunStats, error) {
	collector := &segmentCollector{segments: make(map[time.Time][]*sampling.Sample)}
	rng := xrand.New(cfg.Seed)
	rngs := make([]*xrand.Rand, cfg.Workers)
	for i := range rngs {
		rngs[i] = rng.Split()
	}
	perReplicaFraction := cfg.Fraction

	pipeline.RunParallel(context.Background(), cfg.Workers,
		stream.NewSliceSource(events),
		stream.SinkFunc(func(stream.Event) {}), // sampling op emits nothing downstream
		func(replica int) []pipeline.Operator {
			return []pipeline.Operator{&samplingOperator{
				slide:     cfg.WindowSlide,
				fraction:  perReplicaFraction,
				native:    cfg.System.IsNative(),
				rng:       rngs[replica],
				collector: collector,
			}}
		})

	// Merge replica sub-samples per segment, assign segments to windows,
	// and evaluate.
	acc := newWindowAccumulator(cfg.WindowSize, cfg.WindowSlide)
	for _, seg := range collector.sorted() {
		merged := &sampling.Sample{}
		for _, s := range collector.segments[seg] {
			merged.Strata = append(merged.Strata, s.Strata...)
		}
		acc.add(seg, merged)
	}
	stats := &RunStats{Results: acc.drain(time.Time{}, cfg.Query)}
	return stats, nil
}

// segmentCollector gathers per-replica, per-segment sub-samples.
type segmentCollector struct {
	mu       sync.Mutex
	segments map[time.Time][]*sampling.Sample
}

func (c *segmentCollector) push(segStart time.Time, s *sampling.Sample) {
	if len(s.Strata) == 0 {
		return
	}
	c.mu.Lock()
	c.segments[segStart] = append(c.segments[segStart], s)
	c.mu.Unlock()
}

func (c *segmentCollector) sorted() []time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]time.Time, 0, len(c.segments))
	for t := range c.segments {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Before(out[j]) })
	return out
}

// samplingOperator is the Flink sampling operator of §4.2.2. In native
// mode it retains every item (exact, weight 1); otherwise it runs OASRS
// over each slide segment. Either way items are consumed on the fly and
// nothing is forwarded downstream — the query runs over the per-segment
// samples.
type samplingOperator struct {
	slide     time.Duration
	fraction  float64
	native    bool
	rng       *xrand.Rand
	collector *segmentCollector

	segStart  time.Time
	sampler   *sampling.OASRS
	exact     []stream.Event
	count     int
	lastCount int
}

// defaultSegmentBudget bootstraps the first segment before any arrival
// count is known.
const defaultSegmentBudget = 64

var _ pipeline.Operator = (*samplingOperator)(nil)

// Process implements pipeline.Operator.
func (o *samplingOperator) Process(e stream.Event, _ func(stream.Event)) {
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

// Flush implements pipeline.Operator.
func (o *samplingOperator) Flush(func(stream.Event)) {
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
	// Budget for the segment: fraction of the previous segment's item
	// count, or a bootstrap default for the first segment. OASRS adapts
	// per segment exactly as the cost function re-runs per interval
	// (Algorithm 2). The sampler instance persists across segments so its
	// per-stratum sizing tracks the observed sub-stream set.
	budget := int(o.fraction * float64(o.lastCount))
	if budget < 1 {
		budget = defaultSegmentBudget
	}
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
	o.collector.push(o.segStart, s)
}
