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
// Each shard samples through exactly one SAMPLING GROUP: one pane
// sampler the group owns, whose every pane each member summarises through
// its own query. A shard starts in a group of its own. On each partition
// a group on the plane whose sampler stands at the point of an older
// group's of the same key — the same slide and the same fixed fraction —
// FOLDS into it, at its splice and again before each delivery, so shards
// whose samplers would be interchangeable sample once. A query under a
// target error, whose one controller moves its fraction, keys its shard's
// group to itself, which never folds. The group is the only thing the
// plane feeds, and nothing stands between it and the loop: a group that
// stalls — on a held lock, say — stalls its partition's loop, and the
// partition falls behind in the broker's log, which the lag gauges show.
//
// A group BEHIND the plane — a shard's group attaching at an offset the
// plane has passed (a late registration, a restored checkpoint) — stands
// at its position: the partition's one SWEEP reads the log behind the
// plane once for all of them and splices each back whole at the plane
// position under the plane's lock, so no record is lost or duplicated. A
// group attaching ahead of the plane (From "latest") goes on the plane at
// once, standing at its start until the plane reaches it.
//
// The plane keeps one event-time mark for the topic: the latest event
// time any partition loop has read. A partition that polls empty — the
// broker serves up to its committed high watermark, so an empty poll at
// the plane position means it is drained — for idleAdvanceFloor applies a
// marker to its groups: a delivery without a batch, carrying the mark,
// which advances each group's sampler there, so windows a quiet
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
	topic   string
	backoff time.Duration
	log     *slog.Logger
	// mark is the latest event time any partition loop has read, in unix
	// nanos: what an idle marker advances its groups to.
	mark atomic.Int64

	parts []*partIngest
	wg    sync.WaitGroup
}

// subQueue is one sampling group: its members, the pane sampler they
// sample through and its position, to which the partition loop applies
// each batch on the plane and the sweep each round behind it. The group's
// sampler samples each batch once, and every member summarises its panes.
type subQueue struct {
	key groupKey
	// mu guards members, ps, offset and summed, and is held across each
	// delivery's application, so shards fold and leave between batches.
	// Members change under the partition lock too.
	mu      sync.Mutex
	members []*shard
	ps      *pane.Sampler
	summed  []*shard // cut's scratch: the members summarised so far
	// offset is the group's position, the next offset its sampler needs:
	// on the plane the plane position after its last delivery, ahead of
	// the plane its start, and behind the plane where it stands, which the
	// sweep alone moves, under the partition lock too.
	offset int64
	// behind is whether the group stands behind the plane, for the sweep;
	// guarded by the partition lock.
	behind bool
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

	// mu guards groups, every group's behind, and next. The loop advances
	// next and takes the groups on the plane with mu held, so a splice
	// (pos == next) is atomic against it; it applies outside mu.
	mu       sync.Mutex
	groups   []*subQueue // on the plane and behind it, oldest first
	fed      []*subQueue // the loop's scratch: the groups a delivery goes to
	next     int64       // next offset the plane will deliver; set by the first attach
	started  bool
	stopped  bool
	sweeping bool // the sweep runs
	done     chan struct{}

	recordsMetric *metrics.Counter
	queriesGauge  *metrics.Gauge
	samplersGauge *metrics.Gauge // one per sampling group
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
	ing := &ingest{topic: topic, backoff: backoff, log: log}
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
			done:    make(chan struct{}),
			recordsMetric: reg.Counter("saproxd_ingest_records_total",
				"records fetched once and fanned out to all queries, per partition", l),
			queriesGauge: reg.Gauge("saproxd_ingest_queries",
				"queries attached to the partition's shared plane", l),
			samplersGauge: reg.Gauge("saproxd_ingest_samplers",
				"pane samplers the partition's attached queries run: one per sampling group", l),
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

// attach puts one query shard's group — a group of one — on a partition
// at the group's position, starting the loop there on first use: behind
// the plane the group stands there, for the sweep to bring up to the
// plane; at or ahead of the plane it goes on the plane at once.
func (ing *ingest) attach(sh *shard) {
	pi := ing.parts[sh.idx]
	sub := sh.group.Load()
	pi.mu.Lock()
	defer pi.mu.Unlock()
	if !pi.started {
		pi.started = true
		pi.next = sub.offset
		if !pi.stopped {
			ing.wg.Add(1)
			go pi.loop(pi.next)
		}
	}
	pi.place(sub)
}

// place adds a group of one to the partition at its position (see
// attach). Callers hold pi.mu.
func (pi *partIngest) place(sub *subQueue) {
	pi.groups = append(pi.groups, sub)
	if sub.behind = sub.offset < pi.next; sub.behind {
		pi.sweep()
	} else {
		pi.fold(len(pi.groups) - 1)
	}
	pi.gauge()
}

// detach takes a shard off its partition into a group of its own, so no
// delivery follows detach: with its group's sampler when it was the last
// member, which takes the group off the partition, and with a copy of it
// otherwise.
func (ing *ingest) detach(sh *shard) {
	pi := ing.parts[sh.idx]
	pi.mu.Lock()
	defer pi.mu.Unlock()
	sub := sh.group.Load()
	i := slices.Index(pi.groups, sub)
	if i < 0 {
		return // never attached, or detached already
	}
	sub.mu.Lock()
	defer sub.mu.Unlock()
	sub.members = slices.DeleteFunc(sub.members, func(m *shard) bool { return m == sh })
	if len(sub.members) > 0 {
		sh.alone(sub.ps.Copy(), sub.offset)
	} else {
		sh.alone(sub.ps, sub.offset)
		pi.groups = slices.Delete(pi.groups, i, i+1)
	}
	pi.gauge()
}

// gauge publishes the partition's attached queries and its samplers, one
// per sampling group. Callers hold pi.mu.
func (pi *partIngest) gauge() {
	n := 0
	for _, sub := range pi.groups {
		n += len(sub.members)
	}
	pi.queriesGauge.Set(float64(n))
	pi.samplersGauge.Set(float64(len(pi.groups)))
}

// stop halts every partition loop and sweep and closes dedicated
// connections. Attached shards receive no further deliveries once stop
// returns; their groups stay on the partitions until they detach.
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
		fed := slices.ContainsFunc(pi.groups, func(sub *subQueue) bool { return !sub.behind })
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
// to the pool. The position, the batch's Base (from which a group ahead of
// the plane samples) and the groups are taken in one hold of pi.mu, so a
// group spliced or attaching at the new position misses the batch; the
// groups apply it outside pi.mu.
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

// feeding folds every group on the plane that stands at an older group's
// point of the stream (fold), and lists the groups left on the plane in
// the loop's scratch, which only the loop uses. Callers hold pi.mu.
func (pi *partIngest) feeding() []*subQueue {
	pi.fed = pi.fed[:0]
	for i := 0; i < len(pi.groups); i++ {
		switch sub := pi.groups[i]; {
		case sub.behind:
		case pi.fold(i):
			i-- // deleted at i
		default:
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
// [lo, hi) once, through a consumer at lo over the partition's connection
// (which costs no broker call), and applies it under pi.mu to every group
// standing at lo when it arrives; one it brings to the plane position
// splices there, the plane unable to advance, so exactly once. lo is the
// lowest position behind the plane; hi stops at fetchMax records, the
// plane and the next group's position, so no round straddles a group's
// start, and a group ahead of a lower newcomer waits for it. The members'
// lag gauges take the sweep's high-watermark read, made at most every
// hwmEvery.
func (pi *partIngest) sweeper() {
	defer pi.ing.wg.Done()
	retry := backoff{done: pi.done, d: pi.ing.backoff}
	var hwmAt time.Time
	hwm, haveHWM := int64(0), false
	for {
		pi.mu.Lock()
		lo, hi := pi.next, pi.next
		for _, sub := range pi.groups {
			switch {
			case !sub.behind:
			case sub.offset < lo:
				lo, hi = sub.offset, lo
			case sub.offset > lo && sub.offset < hi:
				hi = sub.offset
			}
		}
		if pi.sweeping = lo < pi.next && !pi.stopped; !pi.sweeping {
			pi.mu.Unlock()
			return // no group is left behind the plane, or the plane stopped
		}
		pi.mu.Unlock()
		cons := broker.NewPartitionConsumer(pi.cluster, pi.ing.topic, pi.idx, lo)
		b, err := cons.PollBatch(int(min(hi, lo+fetchMax) - lo)) // in event-time order
		if b == nil {
			// Broker trouble must not strand the groups off the plane,
			// where their mergers wait on them: retry until they end.
			if err != nil {
				pi.ing.log.Warn("catch-up poll failed", "partition", pi.idx, "offset", lo, "err", err)
			}
			retry.pause()
			continue
		}
		if now := time.Now(); now.Sub(hwmAt) >= hwmEvery {
			hwmAt = now
			if h, err := pi.cluster.HighWatermark(pi.ing.topic, pi.idx); err == nil {
				hwm, haveHWM = h, true
			}
		}
		d := planeDelivery{batch: b, next: lo + int64(b.Len()), hwm: hwm, haveHWM: haveHWM}
		pi.mu.Lock()
		for i := 0; i < len(pi.groups); i++ {
			if sub := pi.groups[i]; sub.behind && sub.offset == lo {
				sub.apply(d)
				if d.next == pi.next && pi.splice(i) {
					i-- // folded into an older group on the plane, and deleted at i
				}
			}
		}
		pi.mu.Unlock()
		b.Release()
	}
}

// splice puts the group at i, standing at the plane position, on the
// plane, and folds it into an older group there of its key at its point
// of the stream. It reports whether it folded. Callers hold pi.mu.
func (pi *partIngest) splice(i int) bool {
	pi.groups[i].behind = false
	return pi.fold(i)
}

// fold folds the group on the plane at i into the first older group on
// the plane of its key that stands at its point of the stream (absorb),
// and takes it off the partition. It reports whether it folded. Callers
// hold pi.mu.
func (pi *partIngest) fold(i int) bool {
	sub := pi.groups[i]
	for _, into := range pi.groups[:i] {
		if into.key == sub.key && !into.behind && into.absorb(sub) {
			pi.groups = slices.Delete(pi.groups, i, i+1)
			pi.gauge()
			return true
		}
	}
	return false
}
