package server

import (
	"fmt"
	"math"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"streamapprox"
	"streamapprox/internal/adaptive"
	"streamapprox/internal/metrics"
	"streamapprox/internal/pane"
	"streamapprox/internal/query"
	"streamapprox/internal/sampling"
	"streamapprox/internal/stream"
)

// A job is one registered query: one shard per partition fed by the
// shared ingest plane, each summarising the panes of an OASRS pane
// sampler, and one merger firing the served windows from every shard's
// panes. Shards of one query share nothing on the data path — the
// paper's synchronization-free parallel sampling — and the plane
// delivers every partition batch to all queries from a single topic
// read; on one partition, queries with interchangeable samplers share
// their sampling group's (see subQueue).
type job struct {
	id   string
	spec Spec
	srv  *Server

	// plane is the server's shared ingest plane the shards attach to.
	plane *ingest

	shards []*shard
	done   chan struct{}
	// wg tracks catch-up goroutines launched for late attachment; stop
	// waits for them before flushing so no push races the flush.
	wg sync.WaitGroup

	// mu guards the merger and the served result state.
	mu      sync.Mutex
	merger  *merger
	results []MergedWindow        // ring of recent results for /results polling, oldest at head
	head    int                   // index of the oldest result once the ring is full
	seq     int64                 // seq of the next merged window
	subs    map[int]chan struct{} // wake-ups: a window was appended to results
	nextSub int
	stopped bool
	relErr  float64 // EWMA of merged windows' relative error bound
	relSeen bool

	windowsMerged *metrics.Counter
	mergeHist     *metrics.Histogram
	partsDropped  *metrics.Counter
	lagGauge      *metrics.Gauge
	obsErrGauge   *metrics.Gauge
}

// maxKept bounds the per-query result ring.
const maxKept = 4096

// shard is one partition's delivery sink for one query: the plane (or
// a catch-up consumer) pushes batches into its pane sampler — its own,
// or its sampling group's — and the shard summarises the sampler's panes
// through its query for the merger. It tracks the query's private
// delivery watermark — the next offset it needs — which is what the
// query's checkpoint persists.
type shard struct {
	job *job
	idx int // shard index == partition
	q   query.Query

	// mu guards ps, ctl, panes, lateOff, wm, offset, skipUntil and
	// observed against the checkpointer. records/sampled/lag are atomic so
	// the query's lag total and the progress counters need no lock.
	mu sync.Mutex
	// ps samples for the shard while it samples for itself; it is nil
	// while the shard shares its group's (sharing, which changes under
	// the group's lock and mu; the group's lock guards that sampler).
	ps        *pane.Sampler
	sharing   atomic.Pointer[subQueue]
	ctl       *adaptive.Controller // steers ps under a target error
	panes     []query.Pane         // finished, not yet handed to the merger
	lateOff   int64                // late drops beyond the sampler's own count
	wm        time.Time            // the sampler's watermark after the last delivery
	offset    int64                // delivery watermark: next offset to apply
	skipUntil int64                // drop plane records below this offset (late attach ahead of plane)
	observed  int64                // seq of the next merged window the shard's controller observes
	records   atomic.Int64
	sampled   atomic.Int64
	lag       atomic.Int64

	recordsMetric *metrics.Counter
	lateMetric    *metrics.Gauge
	depth         *metrics.Gauge   // the group's delivery queue, as this query sees it
	shed          *metrics.Counter // times the query's group was shed to catch-up
}

// newJob builds a job and its shards. When restore is non-nil the
// shards resume from checkpointed sessions and delivery watermarks and
// the merger resumes its pending windows; otherwise shards start per
// spec.From.
func newJob(id string, spec Spec, srv *Server, restore *checkpointFile) (*job, error) {
	j := &job{
		id:    id,
		spec:  spec,
		srv:   srv,
		plane: srv.ing,
		done:  make(chan struct{}),
		subs:  make(map[int]chan struct{}),

		windowsMerged: srv.reg.Counter("saproxd_windows_merged_total",
			"windows merged across shards", metrics.Labels{"query": id}),
		partsDropped: srv.reg.Counter("saproxd_window_parts_dropped_total",
			"shard panes, or an upgraded checkpoint's window parts, arriving after their window was served",
			metrics.Labels{"query": id}),
		lagGauge: srv.reg.Gauge("saproxd_query_lag_records",
			"records between the query's delivery watermarks and the partition high watermarks",
			metrics.Labels{"query": id}),
		mergeHist: srv.reg.Histogram("saproxd_window_merge_seconds",
			"wall-clock latency from first pane to merged emission",
			metrics.Labels{"query": id}),
		obsErrGauge: srv.reg.Gauge("saproxd_query_observed_rel_error",
			"EWMA of merged windows' relative error bound", metrics.Labels{"query": id}),
	}
	if spec.TargetError > 0 {
		srv.reg.Gauge("saproxd_query_target_rel_error",
			"relative-error target the query was registered with", metrics.Labels{"query": id}).Set(spec.TargetError)
	}
	j.merger = newMerger(&j.spec, srv.parts)
	for p := 0; p < srv.parts; p++ {
		sh := &shard{job: j, idx: p, q: spec.combiner()}
		if spec.TargetError > 0 {
			sh.ctl = adaptive.NewController(spec.TargetError, spec.Fraction)
		}
		labels := metrics.Labels{"query": id, "shard": strconv.Itoa(p)}
		sh.recordsMetric = srv.reg.Counter("saproxd_shard_records_total",
			"records consumed per shard", labels)
		sh.lateMetric = srv.reg.Gauge("saproxd_shard_late_events",
			"late events dropped per shard", labels)
		queue := metrics.Labels{"query": id, "partition": strconv.Itoa(p)}
		sh.depth = srv.reg.Gauge("saproxd_delivery_queue_depth",
			"batches queued between the partition loop and the query's drainer", queue)
		sh.shed = srv.reg.Counter("saproxd_delivery_shed_total",
			"times the query overflowed its delivery queue and was shed to catch-up", queue)
		j.shards = append(j.shards, sh)
	}

	if restore != nil {
		if err := j.restore(restore); err != nil {
			return nil, err
		}
		return j, nil
	}
	for _, sh := range j.shards {
		sh.ps = pane.NewSampler(spec.Slide, sh.fraction(), spec.seed(sh.idx))
		if spec.From == "latest" {
			var err error
			if sh.offset, err = srv.cfg.Cluster.HighWatermark(srv.cfg.Topic, sh.idx); err != nil {
				return nil, fmt.Errorf("shard %d start offset: %w", sh.idx, err)
			}
		}
	}
	return j, nil
}

// groupKey is the sampling-group key of the job's shards — zero when
// they must sample alone: under a target error, whose adaptive fraction
// moves per shard.
func (j *job) groupKey() groupKey {
	if j.spec.TargetError == 0 {
		return groupKey{j.spec.Slide, j.spec.Fraction}
	}
	return groupKey{}
}

// start attaches the shards to the ingest plane.
func (j *job) start() {
	for _, sh := range j.shards {
		sh.mu.Lock()
		from := sh.offset
		sh.mu.Unlock()
		j.plane.attach(j, sh, from)
	}
}

// stop detaches the shards from the plane and halts catch-up work.
// When flush is true every in-progress session segment and pending
// merge is forced out to subscribers first — the DELETE path; graceful
// server shutdown keeps them pending so a restart resumes from the
// checkpoint without double-emitting windows.
func (j *job) stop(flush bool) {
	j.mu.Lock()
	if j.stopped {
		j.mu.Unlock()
		return
	}
	j.stopped = true
	j.mu.Unlock()
	close(j.done)
	for _, sh := range j.shards {
		j.plane.detach(sh)
	}
	j.wg.Wait()
	if flush {
		for _, sh := range j.shards {
			sh.mu.Lock()
			sh.ps.Close(sh.cut)
			sh.deliver(time.Time{})
			sh.mu.Unlock()
		}
		j.mu.Lock()
		for _, fw := range j.merger.flush() {
			j.emitLocked(fw)
		}
		j.mu.Unlock()
	}
	j.mu.Lock()
	for id, ch := range j.subs {
		close(ch)
		delete(j.subs, id)
	}
	j.mu.Unlock()
}

// emitLocked assigns the next sequence number and publishes one merged
// window. Callers hold j.mu.
func (j *job) emitLocked(fw firedWindow) {
	fw.result.Seq = j.seq
	fw.result.Query = j.id
	j.seq++
	if n := len(j.results); n < maxKept {
		if n == cap(j.results) { // grow by doubling, never past maxKept
			j.results = append(make([]MergedWindow, 0, min(max(2*n, 16), maxKept)), j.results...)
		}
		j.results = append(j.results, fw.result)
	} else {
		j.results[j.head] = fw.result
		j.head = (j.head + 1) % maxKept
	}
	j.windowsMerged.Inc()
	j.mergeHist.Observe(fw.latency.Seconds())
	if v := math.Abs(fw.result.Value); v > 0 {
		re := fw.result.Error / v
		if j.relSeen {
			j.relErr = 0.5*re + 0.5*j.relErr
		} else {
			j.relErr = re
			j.relSeen = true
		}
		j.obsErrGauge.Set(j.relErr)
	}
	for _, ch := range j.subs {
		select {
		case ch <- struct{}{}:
		default: // a wake-up is pending already: it covers this window too
		}
	}
}

// isStopped reports whether stop has begun.
func (j *job) isStopped() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.stopped
}

// resultsSince returns served results with Seq > since, oldest first,
// copied at their exact size (never nil: /results must encode an empty
// answer as []). The ring holds consecutive seqs ending at j.seq-1.
func (j *job) resultsSince(since int64) []MergedWindow {
	j.mu.Lock()
	defer j.mu.Unlock()
	n := int(min(max(j.seq-1-since, 0), int64(len(j.results))))
	out := make([]MergedWindow, 0, n)
	for i := len(j.results) - n; i < len(j.results); i++ {
		out = append(out, *j.resultAt(i))
	}
	return out
}

// resultAt returns the i-th oldest result the ring holds.
func (j *job) resultAt(i int) *MergedWindow {
	return &j.results[(j.head+i)%len(j.results)]
}

// subscribe registers a wake-up channel: it holds a value whenever a
// window was emitted since the subscriber last received, which then reads
// the new windows with resultsSince. The returned cancel unregisters it.
// The channel is closed when the job stops.
func (j *job) subscribe() (<-chan struct{}, func()) {
	j.mu.Lock()
	defer j.mu.Unlock()
	id := j.nextSub
	j.nextSub++
	ch := make(chan struct{}, 1)
	if j.stopped {
		close(ch)
		return ch, func() {}
	}
	j.subs[id] = ch
	return ch, func() {
		j.mu.Lock()
		defer j.mu.Unlock()
		if c, ok := j.subs[id]; ok {
			delete(j.subs, id)
			close(c)
		}
	}
}

// maxWatermark returns the highest event-time watermark across shards.
func (j *job) maxWatermark() time.Time {
	var max time.Time
	for _, sh := range j.shards {
		sh.mu.Lock()
		if sh.wm.After(max) {
			max = sh.wm
		}
		sh.mu.Unlock()
	}
	return max
}

// skipToOffset arms the shard to drop plane records below its offset —
// a query joining a queue that may still hold batches it has applied
// (a catch-up splice), or that the plane delivers behind its requested
// start (From "latest").
func (sh *shard) skipToOffset() {
	sh.mu.Lock()
	sh.skipUntil = max(sh.skipUntil, sh.offset)
	sh.mu.Unlock()
}

// fraction is the sampling fraction the shard's own sampler samples at:
// its controller's under a target error, the spec's otherwise.
func (sh *shard) fraction() float64 {
	if sh.ctl != nil {
		return sh.ctl.Fraction()
	}
	return sh.job.spec.Fraction
}

// sampler is the sampler the shard's panes come from: its own, or its
// group's while it shares. Callers hold mu, and the group's lock while
// the shard shares.
func (sh *shard) sampler() *pane.Sampler {
	if sub := sh.sharing.Load(); sub != nil {
		return sub.ps
	}
	return sh.ps
}

// cut files a segment its own sampler finished as a pane, summarised
// through the shard's query.
func (sh *shard) cut(start int64, s *sampling.Sample, _ int64) {
	if s != nil {
		sh.panes = append(sh.panes, query.Pane{Start: stream.TimeFromNanos(start), Summary: sh.q.Summarize(s)})
	}
}

// skipFrom is the index of the first record of b at or past skipUntil.
// It uses the batch's Base (offsets are consecutive within a batch): it
// drops exactly skipUntil-Base records, which are the records below
// skipUntil whenever the batch is in offset order — the overwhelmingly
// common case, since producers append in event-time order and a time sort
// then never permutes. A time-permuted batch can swap individual records
// across the attach boundary within the one straddling batch; counts,
// offsets and watermarks stay exact.
func (sh *shard) skipFrom(b *stream.EventBatch) int {
	return int(min(max(sh.skipUntil-b.Base, 0), int64(b.Len())))
}

// consumeLocked applies one EventBatch to the shard's own sampler and
// hands the panes it finished and its watermark to the merger. The batch
// is shared with other queries' sinks and is never mutated. The whole
// application (push + merger delivery) runs under one sh.mu hold, so a
// checkpoint observes either all of a batch or none of it (no torn
// checkpoint). A shard sharing its group's sampler pushes nothing: the
// group, under its lock, sampled the batch and filed the shard's panes
// first.
func (sh *shard) consumeLocked(b *stream.EventBatch, next int64) {
	from := sh.skipFrom(b)
	delivered := b.Len() - from
	if delivered > 0 && sh.ps != nil {
		sh.ps.Push(b, from, b.Len(), sh.cut)
	}
	sh.offset = next
	if sh.offset < sh.skipUntil {
		// Still skipping ahead to the requested start: the watermark to
		// resume from after a restart is the start, not the plane position.
		sh.offset = sh.skipUntil
	}
	if delivered > 0 {
		sh.records.Add(int64(delivered))
		sh.recordsMetric.Add(float64(delivered))
		ps := sh.sampler()
		sh.lateMetric.Set(float64(ps.Late() + sh.lateOff))
		sh.wm = stream.TimeFromNanos(ps.Watermark())
		sh.deliver(sh.wm)
	}
}

// setLag records the shard's distance behind the partition's committed
// high watermark and publishes the query's total.
func (sh *shard) setLag(lag int64) {
	if lag < 0 {
		lag = 0
	}
	sh.lag.Store(lag)
	var total int64
	for _, peer := range sh.job.shards {
		total += peer.lag.Load()
	}
	sh.job.lagGauge.Set(float64(total))
}

// idleLocked pushes an idle shard's own sampler forward to mark, its
// job's maximum watermark, so the windows a sparsely keyed partition
// would otherwise hold back forever fire. hwm is the partition's
// committed high watermark as the drain check read it. A shard sharing
// its group's sampler advances nothing: the group advanced it to the mark
// first, so the mark reaches the merger either way.
func (sh *shard) idleLocked(mark time.Time, hwm int64) {
	if n, ok := stream.UnixNanos(mark); ok && sh.ps != nil {
		sh.ps.Advance(n, sh.cut)
	}
	sh.wm = stream.TimeFromNanos(sh.sampler().Watermark())
	sh.deliver(mark)
	sh.setLag(hwm - sh.offset)
}

// deliver hands the merger the panes the shard finished and the shard's
// watermark, publishes whatever fires, and feeds the shard's adaptive
// controller the relative error of every window served since it last did
// (§4.2.1): the error the query is served with. Callers hold sh.mu;
// deliver nests j.mu inside it, the last lock of the one order
// plane → group → shard → job.
func (sh *shard) deliver(mark time.Time) {
	j := sh.job
	j.mu.Lock()
	for _, p := range sh.panes {
		sh.sampled.Add(int64(p.Summary.SampledCount()))
		if !j.merger.add(sh.idx, p) {
			j.partsDropped.Inc()
		}
	}
	clear(sh.panes)
	sh.panes = sh.panes[:0]
	if !mark.IsZero() {
		for _, fw := range j.merger.advance(sh.idx, mark) {
			j.emitLocked(fw)
		}
	}
	if sh.ctl != nil {
		for oldest := j.seq - int64(len(j.results)); sh.observed < j.seq; sh.observed++ {
			if sh.observed >= oldest {
				w := j.resultAt(int(sh.observed - oldest))
				sh.ps.SetFraction(sh.ctl.Observe(streamapprox.Estimate{Value: w.Value, Bound: w.Error}.RelativeError()))
			}
		}
	}
	j.mu.Unlock()
}

// sleepOrDone pauses for d, returning false if done closed.
func sleepOrDone(done chan struct{}, d time.Duration) bool {
	if d <= 0 {
		select {
		case <-done:
			return false
		default:
			return true
		}
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-done:
		return false
	case <-t.C:
		return true
	}
}
