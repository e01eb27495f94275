package server

import (
	"io"
	"log/slog"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"streamapprox/internal/broker"
	"streamapprox/internal/metrics"
	"streamapprox/internal/pane"
	"streamapprox/internal/stream"
)

// traceSetter is implemented by broker connections that can stamp a
// wire-level trace ID on their requests (*broker.ClusterClient; the
// in-process broker has no wire and no-ops).
type traceSetter interface{ SetTraceID(uint64) }

// The shared ingest plane: exactly one consumer per (topic, partition)
// regardless of how many queries are registered. Each partition loop
// fetches a batch once, decodes it once into a columnar EventBatch, and
// applies the (event-time sorted, read-only) batch itself to every
// sampling group on the plane, one after another. Broker fetch work is
// O(partitions), not O(queries × partitions) — the property that lets one
// middle tier serve thousands of concurrent queries over a single topic
// read.
//
// On each partition the shards whose samplers would be interchangeable —
// the same slide and the same fixed fraction — form one SAMPLING GROUP:
// one pane sampler the group owns, whose every pane each sharing member
// summarises through its own query. A query under a target error, whose
// one controller moves its fraction, groups its shard alone. The group is
// the only thing the plane feeds, and nothing stands between it and the
// loop: a group that stalls — on a held lock, say — stalls its
// partition's loop, and the partition falls behind in the broker's log,
// which the lag gauges show.
//
// A group BEHIND the plane — a new group of one for a shard attaching at
// an offset the plane has passed (a late registration, a restored
// checkpoint) — stands at its position: the partition's one SWEEP reads
// the log behind the plane once for all of them and splices each back
// whole at the plane position under the plane's lock, so no record is
// lost or duplicated. A shard attaching ahead of the plane (From
// "latest") joins at once and drops records below its start.
//
// The plane keeps one event-time mark for the topic: the latest event
// time any partition loop has read. A partition that polls empty — the
// broker serves up to its committed high watermark, so an empty poll at
// the plane position means it is drained — for idleAdvanceFloor applies a
// marker to its groups: a delivery without a batch, carrying the mark,
// which advances every member's sampler there, so windows a quiet
// partition would hold back still merge.

// fetchMax bounds one fetch round's record count, on the plane and the
// sweep behind it alike.
const fetchMax = 4096

// idleAdvanceFloor is the WALL-CLOCK time every poll of a partition must
// come back empty before it applies a marker, and again between markers;
// a failed poll starts it over. A broker riding out a slow fsync or a
// failover replay looks like a quiet partition for tens of milliseconds,
// and a marker then would advance the samplers to the plane's mark — so
// the stalled records, when they finally commit, land in windows that
// have already fired and are dropped as late. The floor makes "idle"
// mean "idle longer than any transient stall the chaos plane injects",
// trading marker latency on truly sparse partitions (bounded, and
// invisible next to window slides) for accuracy under faults.
const idleAdvanceFloor = 250 * time.Millisecond

// hwmEvery bounds how often a busy partition loop asks the broker for
// the committed high watermark. Delivered batches carry it only to feed
// the two lag gauges (ingest, query), which nobody reads at
// batch rate — and one RPC per batch is a fifth of a saturated
// pipeline's requests.
const hwmEvery = 100 * time.Millisecond

// ingest is one plane: a set of partition loops over one topic.
type ingest struct {
	cluster broker.Cluster // control-plane connection, read behind the plane
	topic   string
	backoff time.Duration
	log     *slog.Logger
	// mark is the latest event time any partition loop has read, in unix
	// nanos: what an idle marker advances its groups to.
	mark atomic.Int64

	parts []*partIngest
	wg    sync.WaitGroup
}

// subQueue is one sampling group on one partition: its members and the
// pane sampler they share, to which the partition loop applies each batch
// on the plane and the sweep each round behind it. The group's sampler
// samples each batch once, and every sharing member summarises its panes; a
// private member (out of step with the group) samples for itself until it
// stands at the group's point of the stream, then shares.
type subQueue struct {
	key groupKey
	// mu guards members, ps, offset and summed, and is held across each
	// delivery's application, so shards join and leave between batches.
	mu      sync.Mutex
	members []*shard      // members[0] shares ps
	ps      *pane.Sampler // the shared sampler
	offset  int64         // the next offset ps samples
	summed  []*shard      // cut's scratch: the members summarised so far
	// from is where a group behind the plane stands, -1 on it; guarded by
	// the partition lock.
	from     int64
	samplers *metrics.Gauge // the partition's saproxd_ingest_samplers
}

// groupKey is what makes two shards' samplers interchangeable on a
// partition: the slide and the fixed fraction of their sessions, or the
// job whose controller moves an adaptive one.
type groupKey struct {
	slide    time.Duration
	fraction float64
	owner    *job
}

// planeDelivery is one fan-out unit: a shared columnar batch, ending at
// offset next, or — batch nil — an idle marker at plane position next,
// carrying the plane's mark as of the empty poll that found the partition
// drained.
type planeDelivery struct {
	batch   *stream.EventBatch
	next    int64
	hwm     int64
	haveHWM bool
	mark    int64 // a marker's event time, in unix nanos
}

// partIngest is the plane for one partition: one consumer, one loop,
// any number of sampling groups on the plane or behind it.
type partIngest struct {
	ing     *ingest
	idx     int
	cluster broker.Cluster // dedicated connection when DialShard is set
	conn    io.Closer      // nil when sharing the control connection

	// mu guards subs, groups, every group's from, and next. The loop
	// advances next and takes the groups on the plane with mu held, so a
	// splice (pos == next) is atomic against it; it applies outside mu.
	mu       sync.Mutex
	subs     map[*shard]*subQueue // every attached shard's group
	groups   []*subQueue          // on the plane and behind it
	fed      []*subQueue          // the loop's scratch: the groups a delivery goes to
	next     int64                // next offset the plane will deliver; set by the first attach
	started  bool
	stopped  bool
	sweeping bool // the sweep runs
	done     chan struct{}

	recordsMetric *metrics.Counter
	queriesGauge  *metrics.Gauge
	samplersGauge *metrics.Gauge // group members sampling for themselves
	lagGauge      *metrics.Gauge
	throughput    *metrics.Meter
	batchHist     *metrics.Histogram // records per delivered columnar batch
	decodeHist    *metrics.Histogram // seconds blocked fetching+decoding a round
}

// newIngest builds a plane with one (not yet started) partition loop
// per partition. When dial is non-nil each partition gets a dedicated
// broker connection, closed on stop.
func newIngest(cluster broker.Cluster, dial func() (broker.Cluster, error),
	topic string, parts int, backoff time.Duration,
	log *slog.Logger, reg *metrics.Registry) (*ingest, error) {
	ing := &ingest{cluster: cluster, topic: topic, backoff: backoff, log: log}
	ing.mark.Store(stream.ZeroTimeNanos)
	for p := 0; p < parts; p++ {
		pc := cluster
		var closer io.Closer
		if dial != nil {
			c, err := dial()
			if err != nil {
				ing.closeConns()
				return nil, err
			}
			pc = c
			closer, _ = c.(io.Closer)
			// Each partition pipeline owns this connection, so a trace ID
			// stamped here follows every fetch the pipeline issues and can
			// be grepped out of broker-side logs.
			if ts, ok := pc.(traceSetter); ok {
				tid := broker.NewTraceID()
				ts.SetTraceID(tid)
				log.Info("ingest pipeline", "topic", topic, "partition", p, broker.TraceAttr(tid))
			}
		}
		l := metrics.Labels{"partition": strconv.Itoa(p)}
		pi := &partIngest{
			ing:     ing,
			idx:     p,
			cluster: pc,
			conn:    closer,
			subs:    make(map[*shard]*subQueue),
			done:    make(chan struct{}),
			recordsMetric: reg.Counter("saproxd_ingest_records_total",
				"records fetched once and fanned out to all queries, per partition", l),
			queriesGauge: reg.Gauge("saproxd_ingest_queries",
				"queries attached to the partition's shared plane", l),
			samplersGauge: reg.Gauge("saproxd_ingest_samplers",
				"pane samplers the partition's attached queries run: each sampling group's shared one plus one per private member", l),
			lagGauge: reg.Gauge("saproxd_ingest_lag_records",
				"records between the plane position and the partition high watermark", l),
			batchHist: reg.Histogram("saproxd_ingest_batch_records",
				"records per columnar batch fanned out by the partition loop", l),
			decodeHist: reg.Histogram("saproxd_ingest_decode_seconds",
				"seconds the partition loop blocked on fetch+decode of one round", l),
		}
		pi.throughput = metrics.NewMeter(0, reg.Gauge("saproxd_ingest_throughput_items_per_s",
			"smoothed per-partition ingest rate", l))
		ing.parts = append(ing.parts, pi)
	}
	return ing, nil
}

// join attaches sh to the partition (callers hold pi.mu): into the
// sampling group on the plane its job's key names — sharing the group's
// sampler when it stands at the group's point of the stream, as a private
// member otherwise — or into a new group of its own on the plane.
// A batch the loop is still applying below the shard's offset is skipped
// for it.
func (pi *partIngest) join(sh *shard) {
	sh.skipToOffset()
	i := pi.live(sh.job.groupKey())
	if i < 0 {
		pi.group(sh, pi.next)
		return
	}
	pi.samplersGauge.Add(1)
	sub := pi.groups[i]
	pi.subs[sh] = sub
	sub.mu.Lock()
	sub.members = append(sub.members, sh)
	sub.share(sh)
	sub.mu.Unlock()
}

// live is the index of the group on the plane that shards of key join, or
// -1. Callers hold pi.mu.
func (pi *partIngest) live(key groupKey) int {
	return slices.IndexFunc(pi.groups, func(sub *subQueue) bool { return sub.key == key && sub.onPlane() })
}

// group starts a new group of sh alone at from — on the plane when from is
// the plane position, otherwise behind it, for the sweep — which takes
// sh's sampler. Callers hold pi.mu.
func (pi *partIngest) group(sh *shard, from int64) {
	pi.samplersGauge.Add(1)
	sub := &subQueue{key: sh.job.groupKey(), members: []*shard{sh}, samplers: pi.samplersGauge, from: from}
	sub.take(sh)
	pi.groups = append(pi.groups, sub)
	pi.subs[sh] = sub
	if from == pi.next {
		pi.splice(sub)
	} else {
		pi.sweep()
	}
}

// onPlane reports whether the plane feeds the group, not the sweep.
// Callers hold pi.mu.
func (sub *subQueue) onPlane() bool { return sub.from < 0 }

// end dissolves a group taken off the partition, once a delivery the loop
// is applying to it is done. Callers hold pi.mu.
func (sub *subQueue) end() {
	sub.mu.Lock()
	sub.dissolve()
	sub.mu.Unlock()
}

// attach joins one query shard to a partition plane, starting the loop
// on first use. from is the shard's delivery watermark: behind the plane
// the shard starts a group of its own there, which the sweep brings up to
// the plane; at or ahead of the plane the shard joins at once,
// skipping records below from.
func (ing *ingest) attach(sh *shard, from int64) {
	pi := ing.parts[sh.idx]
	pi.mu.Lock()
	defer pi.mu.Unlock()
	if !pi.started {
		pi.started = true
		pi.next = from
		if !pi.stopped {
			ing.wg.Add(1)
			go pi.loop(from)
		}
	}
	if from >= pi.next {
		pi.join(sh)
	} else {
		pi.group(sh, from)
	}
	pi.queriesGauge.Set(float64(len(pi.subs)))
}

// detach takes a shard out of its group, so no consume call can follow
// detach. The last member ends the group.
func (ing *ingest) detach(sh *shard) {
	pi := ing.parts[sh.idx]
	pi.mu.Lock()
	sub, ok := pi.subs[sh]
	if !ok {
		pi.mu.Unlock()
		return
	}
	delete(pi.subs, sh)
	pi.queriesGauge.Set(float64(len(pi.subs)))
	if len(sub.members) > 1 { // members change only under pi.mu too
		sub.mu.Lock()
		sub.remove(sh)
		sub.mu.Unlock()
		pi.mu.Unlock()
		return
	}
	pi.groups = slices.DeleteFunc(pi.groups, func(o *subQueue) bool { return o == sub })
	sub.end()
	pi.mu.Unlock()
}

// stop halts every partition loop and sweep, closes dedicated
// connections, and ends every group. Attached shards receive no further
// deliveries once stop returns.
func (ing *ingest) stop() {
	for _, pi := range ing.parts {
		pi.mu.Lock()
		if !pi.stopped {
			pi.stopped = true
			close(pi.done)
		}
		pi.mu.Unlock()
	}
	// Closing a loop's own connection fails the fetch it may be blocked
	// in, so stopping never waits out a request deadline or retry budget.
	ing.closeConns()
	ing.wg.Wait()
	// With the loops and sweeps stopped every delivery has been applied.
	for _, pi := range ing.parts {
		pi.mu.Lock()
		for _, sub := range pi.groups {
			sub.end()
		}
		pi.groups = nil
		clear(pi.subs)
		pi.queriesGauge.Set(0)
		pi.mu.Unlock()
	}
}

func (ing *ingest) closeConns() {
	for _, pi := range ing.parts {
		if pi.conn != nil {
			_ = pi.conn.Close()
			pi.conn = nil
		}
	}
}

// loop is the partition's reader on the plane: a broker.Consumer positioned
// at the plane offset (constructing it costs no broker call — an
// unreachable broker shows up as a failed poll, which the loop already
// retries), polled synchronously. The poll interval belongs to this
// loop: a round that filled fetchMax is followed by the next fetch at
// once (catch-up runs at full speed), a round that drained the
// partition — short or empty — by exactly one back-off, and nothing is
// ever fetched ahead of a sleep, so a fetched round is never older than
// the fetch itself and a record waits at most one back-off. With no
// group on the plane the loop idles without advancing, so a group behind
// it, or a future attacher at the current offset, joins seamlessly.
func (pi *partIngest) loop(start int64) {
	defer pi.ing.wg.Done()
	cons := broker.NewPartitionConsumer(pi.cluster, pi.ing.topic, pi.idx, start)
	back := backoff{done: pi.done, d: pi.ing.backoff}
	var idleSince, hwmAt time.Time
	for {
		select {
		case <-pi.done:
			return
		default:
		}
		pi.mu.Lock()
		fed := slices.ContainsFunc(pi.groups, (*subQueue).onPlane)
		pi.mu.Unlock()
		if !fed {
			// Nobody listening: pause without advancing the plane.
			idleSince = time.Time{}
			if !back.pause() {
				return
			}
			continue
		}
		// The plane's mark as the poll starts: one read after an empty
		// poll could count records committed after it, beside this
		// partition's next ones.
		mark := pi.ing.mark.Load()
		t0 := time.Now()
		b, err := cons.PollBatch(fetchMax)
		pi.decodeHist.Observe(time.Since(t0).Seconds())
		if err != nil {
			select {
			case <-pi.done:
				return
			default:
			}
			idleSince = time.Time{}
			if !back.pause() {
				return
			}
			continue
		}
		if b == nil {
			if now := time.Now(); idleSince.IsZero() {
				idleSince = now
			} else if now.Sub(idleSince) >= idleAdvanceFloor {
				idleSince = now
				pi.punctuate(mark)
			}
			if !back.pause() {
				return
			}
			continue
		}
		idleSince = time.Time{}
		// A high-watermark read (best effort) for the lag gauges, at most
		// every hwmEvery; an idle marker settles them.
		hwm, haveHWM := int64(0), false
		if now := time.Now(); now.Sub(hwmAt) >= hwmEvery {
			hwmAt = now
			h, err := pi.cluster.HighWatermark(pi.ing.topic, pi.idx)
			hwm, haveHWM = h, err == nil
		}
		short := b.Len() < fetchMax
		pi.deliverBatch(b, hwm, haveHWM)
		if short && !back.pause() {
			return
		}
	}
}

// deliverBatch applies one pooled EventBatch to every sampling group on
// the plane, in order, advances the plane position, and returns the batch
// to the pool. The position, the batch's Base (which shards compute skip
// positions relative to) and the groups are taken in one hold of pi.mu,
// so a group spliced at the new position misses the batch and a shard
// joining there skips it; the groups apply it outside pi.mu.
func (pi *partIngest) deliverBatch(b *stream.EventBatch, hwm int64, haveHWM bool) {
	n := int64(b.Len())
	last := b.Times[n-1] // the batch is in event-time order
	for m := pi.ing.mark.Load(); last > m; m = pi.ing.mark.Load() {
		if pi.ing.mark.CompareAndSwap(m, last) {
			break
		}
	}
	pi.recordsMetric.Add(float64(n))
	pi.throughput.Mark(n)
	pi.batchHist.Observe(float64(n))
	pi.mu.Lock()
	b.Base = pi.next
	pi.next += n
	d := planeDelivery{batch: b, next: pi.next, hwm: hwm, haveHWM: haveHWM}
	groups := pi.feeding()
	pi.mu.Unlock()
	for _, sub := range groups {
		sub.apply(d)
	}
	b.Release()
	if haveHWM {
		pi.lagGauge.Set(float64(hwm - d.next))
	}
}

// punctuate applies an idle marker at the plane position to every
// sampling group on the plane, carrying mark. The position stands for
// the high watermark, as the poll that found the partition drained read
// it, so the lag gauges settle at zero.
func (pi *partIngest) punctuate(mark int64) {
	pi.mu.Lock()
	d := planeDelivery{next: pi.next, hwm: pi.next, haveHWM: true, mark: mark}
	groups := pi.feeding()
	pi.mu.Unlock()
	for _, sub := range groups {
		sub.apply(d)
	}
	pi.lagGauge.Set(0)
}

// feeding lists the groups on the plane in the loop's scratch, which only
// the loop uses. Callers hold pi.mu.
func (pi *partIngest) feeding() []*subQueue {
	pi.fed = pi.fed[:0]
	for _, sub := range pi.groups {
		if sub.onPlane() {
			pi.fed = append(pi.fed, sub)
		}
	}
	return pi.fed
}

// sweep makes sure the partition's one reader behind the plane runs, now
// that a group stands there. Callers hold pi.mu.
func (pi *partIngest) sweep() {
	if !pi.sweeping && !pi.stopped {
		pi.sweeping = true
		pi.ing.wg.Add(1)
		go pi.sweeper()
	}
}

// sweeper is the partition's one reader behind the plane. A round reads
// [lo, hi) once, through a consumer at lo (which costs no broker call),
// and applies it under pi.mu to every group standing at lo when it
// arrives; one it brings to the plane position splices there, the plane
// unable to advance, so exactly once. lo is the lowest position behind
// the plane; hi stops at fetchMax records, the plane and the next group's
// position, so no round straddles a group's start, and a group ahead of a
// lower newcomer waits for it.
func (pi *partIngest) sweeper() {
	defer pi.ing.wg.Done()
	retry := backoff{done: pi.done, d: pi.ing.backoff}
	for {
		pi.mu.Lock()
		lo, hi := pi.next, pi.next
		for _, sub := range pi.groups {
			switch {
			case sub.onPlane():
			case sub.from < lo:
				lo, hi = sub.from, lo
			case sub.from > lo && sub.from < hi:
				hi = sub.from
			}
		}
		if pi.sweeping = lo < pi.next && !pi.stopped; !pi.sweeping {
			pi.mu.Unlock()
			return // no group is left behind the plane, or the plane stopped
		}
		pi.mu.Unlock()
		cons := broker.NewPartitionConsumer(pi.ing.cluster, pi.ing.topic, pi.idx, lo)
		b, err := cons.PollBatch(int(min(hi, lo+fetchMax) - lo)) // in event-time order
		if err != nil || b == nil {
			// Broker trouble must not strand the groups off the plane,
			// where their mergers wait on them: retry until they end.
			pi.ing.log.Warn("catch-up poll failed", "partition", pi.idx, "offset", lo, "err", err)
			retry.pause()
			continue
		}
		next := lo + int64(b.Len())
		pi.mu.Lock()
		for i := 0; i < len(pi.groups); i++ {
			if sub := pi.groups[i]; sub.from == lo {
				sub.apply(planeDelivery{batch: b, next: next})
				if sub.from = next; next == pi.next && !pi.splice(sub) {
					i-- // merged into the group on the plane, and deleted at i
				}
			}
		}
		pi.mu.Unlock()
		b.Release()
	}
}

// splice puts a group standing at the plane position on the plane, or
// merges it into the group there of its key, whose sampler its members
// share once at the same point. It reports whether the group itself is on
// the plane. Callers hold pi.mu.
func (pi *partIngest) splice(sub *subQueue) bool {
	if pi.live(sub.key) < 0 {
		sub.from = -1
		return true
	}
	pi.groups = slices.DeleteFunc(pi.groups, func(o *subQueue) bool { return o == sub })
	sub.mu.Lock()
	members := sub.members
	sub.dissolve()
	sub.mu.Unlock()
	for _, sh := range members {
		pi.join(sh)
	}
	return false
}
