package server

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"streamapprox"
	"streamapprox/internal/adaptive"
	"streamapprox/internal/metrics"
	"streamapprox/internal/pane"
	"streamapprox/internal/query"
)

// A job is one registered query: one shard per partition fed by the
// shared ingest plane, each summarising the panes of an OASRS pane
// sampler, and one merger firing the served windows from every shard's
// panes. Shards of one query share nothing on the data path — the
// paper's synchronization-free parallel sampling — and the plane
// delivers every partition batch to all queries from a single topic
// read; each shard samples through its sampling group's sampler, which
// on one partition queries with interchangeable samplers share (see
// group).
type job struct {
	id   string
	spec Spec
	srv  *Server

	// plane is the server's shared ingest plane the shards attach to.
	plane *ingest

	shards []*shard

	// mu guards the merger and the served result state.
	mu     sync.Mutex
	merger *merger
	// blocks hold the ring of recent results for /results and /stream,
	// ringBlock results each, a block appended as the ring grows; kept
	// results are in ring positions head, head+1, … modulo maxKept.
	blocks  []*[ringBlock]MergedWindow
	kept    int                   // results in the ring, at most maxKept
	head    int                   // ring position of the oldest result
	seq     int64                 // seq of the next merged window
	subs    map[int]chan struct{} // wake-ups: a window was added to the ring
	nextSub int
	stopped bool
	relErr  float64 // EWMA of merged windows' relative error bound
	relSeen bool
	// ctl is the query's one feedback loop under a target error (§4.2.1;
	// nil without one): it observes each served window's error once.
	ctl *adaptive.Controller

	windowsMerged *metrics.Counter
	mergeHist     *metrics.Histogram
	partsDropped  *metrics.Counter
	lagGauge      *metrics.Gauge
	obsErrGauge   *metrics.Gauge
}

// maxKept bounds the per-query result ring, which grows by ringBlock
// results at a time and, full, overwrites its oldest in place.
const (
	maxKept   = 4096
	ringBlock = 64
)

// shard is one partition's delivery sink for one query: its sampling
// group pushes batches into the group's pane sampler, and the shard
// summarises the sampler's panes through its query for the merger. It
// stands where its group stands: the group's position is the next offset
// the query needs from the partition, which its checkpoint persists.
type shard struct {
	job *job
	idx int // shard index == partition
	q   query.Query

	// group is the sampling group the shard samples through. It, panes
	// and lateOff are guarded by the partition lock (see group.go), as
	// the group's sampler and position are. records/sampled/lag are
	// atomic so the query's lag total and the progress counters need no
	// lock.
	group   *group
	panes   []query.Pane // finished, not yet handed to the merger
	lateOff int64        // late drops beyond the group sampler's count
	records atomic.Int64
	sampled atomic.Int64
	lag     atomic.Int64

	recordsMetric *metrics.Counter
	lateMetric    *metrics.Gauge
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
		subs:  make(map[int]chan struct{}),

		windowsMerged: srv.reg.Counter("saproxd_windows_merged_total",
			"windows merged across shards", metrics.Labels{"query": id}),
		partsDropped: srv.reg.Counter("saproxd_window_parts_dropped_total",
			"shard panes arriving after their window was served",
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
		j.ctl = adaptive.NewController(spec.TargetError, spec.Fraction)
		srv.reg.Gauge("saproxd_query_target_rel_error",
			"relative-error target the query was registered with", metrics.Labels{"query": id}).Set(spec.TargetError)
	}
	j.merger = newMerger(&j.spec, srv.parts)
	for p := 0; p < srv.parts; p++ {
		sh := &shard{job: j, idx: p, q: spec.combiner()}
		labels := metrics.Labels{"query": id, "shard": strconv.Itoa(p)}
		sh.recordsMetric = srv.reg.Counter("saproxd_shard_records_total",
			"records consumed per shard", labels)
		sh.lateMetric = srv.reg.Gauge("saproxd_shard_late_events",
			"late events dropped per shard", labels)
		j.shards = append(j.shards, sh)
	}

	if restore != nil {
		if err := j.restore(restore); err != nil {
			return nil, err
		}
		return j, nil
	}
	for _, sh := range j.shards {
		var offset int64
		if spec.From == "latest" {
			var err error
			if offset, err = srv.cfg.Cluster.HighWatermark(srv.cfg.Topic, sh.idx); err != nil {
				return nil, fmt.Errorf("shard %d start offset: %w", sh.idx, err)
			}
		}
		sh.alone(pane.NewSampler(spec.Slide, spec.Fraction, spec.seed(sh.idx)), offset)
	}
	return j, nil
}

// groupKey is the sampling-group key of the job's shards: under a target
// error, whose fraction the job's own controller moves, one that names
// the job, so they group alone.
func (j *job) groupKey() groupKey {
	if j.ctl != nil {
		return groupKey{owner: j}
	}
	return groupKey{slide: j.spec.Slide, fraction: j.spec.Fraction}
}

// start attaches the shards to the ingest plane.
func (j *job) start() {
	for _, sh := range j.shards {
		j.plane.attach(sh)
	}
}

// stop detaches the shards from the plane, each into a group of its own.
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
	for _, sh := range j.shards {
		j.plane.detach(sh)
	}
	if flush {
		for _, sh := range j.shards {
			unlock := sh.lock()
			sh.group.ps.Close(sh.group.cut)
			sh.deliver(time.Time{})
			unlock()
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
	at := j.head
	if j.kept < maxKept {
		at = j.kept
		j.kept++
	} else {
		j.head = (j.head + 1) % maxKept
	}
	if at/ringBlock == len(j.blocks) {
		j.blocks = append(j.blocks, new([ringBlock]MergedWindow))
	}
	j.blocks[at/ringBlock][at%ringBlock] = fw.result
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
	if j.ctl != nil {
		j.ctl.Observe(streamapprox.Estimate{Value: fw.result.Value, Bound: fw.result.Error}.RelativeError())
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

// appendResults appends to dst the served results with Seq > since,
// oldest first. The ring holds consecutive seqs ending at j.seq-1. A
// since below -1 asks for everything, as -1 does (and would overflow the
// count).
func (j *job) appendResults(dst []MergedWindow, since int64) []MergedWindow {
	j.mu.Lock()
	defer j.mu.Unlock()
	n := int(min(max(j.seq-1-max(since, -1), 0), int64(j.kept)))
	dst = slices.Grow(dst, n)
	for i := j.kept - n; i < j.kept; i++ {
		dst = append(dst, *j.resultAt(i))
	}
	return dst
}

// resultAt returns the i-th oldest result the ring holds.
func (j *job) resultAt(i int) *MergedWindow {
	at := (j.head + i) % maxKept
	return &j.blocks[at/ringBlock][at%ringBlock]
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

// deliver hands the merger the panes the shard finished and the shard's
// watermark, publishes whatever fires, and sets the shard's sampler to
// the fraction of the query's controller, which has observed every window
// served so far. Callers hold the partition lock; deliver nests j.mu
// inside, the last lock of the one order server → partition → job.
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
	if j.ctl != nil {
		sh.group.ps.SetFraction(j.ctl.Fraction())
	}
	j.mu.Unlock()
}

// backoff is one loop's pause: a single timer that every pause Resets,
// so a loop that backs off allocates nothing per pause.
type backoff struct {
	done chan struct{}
	d    time.Duration
	t    *time.Timer
}

// pause waits for d, returning false if done closed.
func (b *backoff) pause() bool {
	if b.t == nil {
		b.t = time.NewTimer(b.d)
	} else {
		b.t.Reset(b.d)
	}
	select {
	case <-b.done:
		b.t.Stop()
		return false
	case <-b.t.C:
		return true
	}
}
