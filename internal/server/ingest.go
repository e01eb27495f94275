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
// a group whose sampler stands at the point of an older group's of the
// same key — the same slide and the same fixed fraction — on its side of
// the plane FOLDS into it, so shards whose samplers would be
// interchangeable sample once. A query under a target error, whose one
// controller moves its fraction, keys its shard's group to itself, which
// never folds. Nothing stands between a group and the loop: a group that
// stalls — on a held lock, say — stalls its partition's loop, and the
// partition falls behind in the broker's log, which the lag gauges show.
// One lock, the partition's, guards all of it (see group.go).
//
// A group BEHIND the plane — attaching at an offset the plane has passed:
// a late registration, a restored checkpoint — stands at its position,
// and the loop reads the log there once for all such groups before it
// reads on at the plane, splicing each back whole at the plane position,
// so no record is lost or duplicated. A group attaching ahead of the
// plane (From "latest") goes on the plane, standing at its start until
// the plane reaches it.
//
// The plane keeps one event-time mark for the topic: the latest event
// time any partition loop has read. A partition that polls empty — the
// broker serves up to its committed high watermark, so an empty poll at
// the plane position means it is drained — for idleAdvanceFloor applies a
// marker to its groups: a delivery without a batch, carrying the mark,
// which advances each group's sampler there, so windows a quiet
// partition would hold back still merge.

// fetchMax bounds one fetch round's record count, on the plane and behind
// it alike.
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
// each round it reads there. The group's sampler samples each batch once,
// and every member summarises its panes. The partition lock guards it all,
// and is held across each delivery's application, so shards fold and leave
// between batches.
type subQueue struct {
	key     groupKey
	members []*shard
	ps      *pane.Sampler
	summed  []*shard // cut's scratch: the members summarised so far
	// offset is the group's position, the next offset its sampler needs:
	// on the plane the plane position after its last delivery, ahead of
	// the plane its start, and behind the plane where it stands. Only the
	// loop moves it.
	offset int64
	behind bool // whether it stands behind the plane
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

	// mu is the partition lock: it guards groups, everything of theirs
	// (see group.go), and next. The loop advances next and applies each
	// round with mu held, and fetches, backs off and reads the high
	// watermark outside it.
	mu      sync.Mutex
	groups  []*subQueue // on the plane and behind it, oldest first
	fed     []*subQueue // the loop's scratch: the groups a delivery goes to
	next    int64       // next offset the plane will deliver; set by the first attach
	started bool
	stopped bool
	done    chan struct{}

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
// the plane the group stands there, for the loop to bring up to the
// plane; at or ahead of the plane it goes on the plane at once.
func (ing *ingest) attach(sh *shard) {
	pi := ing.parts[sh.idx]
	pi.mu.Lock()
	defer pi.mu.Unlock()
	if !pi.started {
		pi.started = true
		pi.next = sh.group.offset
		if !pi.stopped {
			ing.wg.Add(1)
			go pi.loop(pi.next)
		}
	}
	pi.place(sh.group)
}

// place adds a group of one to the partition at its position (see
// attach), folding it into an older group there. Callers hold pi.mu.
func (pi *partIngest) place(sub *subQueue) {
	pi.groups = append(pi.groups, sub)
	sub.behind = sub.offset < pi.next
	pi.fold(len(pi.groups) - 1)
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
	sub := sh.group
	i := slices.Index(pi.groups, sub)
	if i < 0 {
		return // never attached, or detached already
	}
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

// stop halts every partition loop and closes dedicated connections. No
// delivery follows it; groups stay on the partitions until they detach.
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

// loop is the partition's one reader: a broker.Consumer at the plane
// offset (constructing it costs no broker call — an unreachable broker
// shows up as a failed poll, which the loop retries), polled
// synchronously. While a group stands behind the plane, each turn reads a
// round there instead (behind, catchUp), so the plane waits for the late
// groups and only the loop ever moves it. A round that filled fetchMax is
// followed by the next fetch at once, one that drained the partition by
// exactly one back-off, and nothing is fetched ahead of a sleep, so a
// record waits at most one back-off. With no group on the partition the
// loop idles without advancing, so an attacher at the offset joins
// seamlessly.
func (pi *partIngest) loop(start int64) {
	defer pi.ing.wg.Done()
	cons := broker.NewPartitionConsumer(pi.cluster, pi.ing.topic, pi.idx, start)
	back := backoff{done: pi.done, d: pi.ing.backoff}
	var idleSince, hwmAt time.Time
	hwm, haveHWM := int64(0), false
	// readHWM reads the high watermark for the lag gauges (best effort) at
	// most every hwmEvery, and reports whether it read it now: a plane
	// round's gauges take only a fresh read, a round behind the plane's the
	// latest, the waiting plane's a fresh one, and an idle marker settles
	// them.
	readHWM := func() bool {
		if time.Since(hwmAt) < hwmEvery {
			return false
		}
		hwmAt = time.Now()
		h, err := pi.cluster.HighWatermark(pi.ing.topic, pi.idx)
		if err == nil {
			hwm, haveHWM = h, true
		}
		return err == nil
	}
	for {
		select {
		case <-pi.done:
			return
		default:
		}
		pi.mu.Lock()
		lo, hi, fed := pi.behind()
		pi.mu.Unlock()
		if lo < hi {
			idleSince = time.Time{}
			b, err := broker.NewPartitionConsumer(pi.cluster, pi.ing.topic, pi.idx, lo).PollBatch(int(hi - lo))
			fresh := readHWM()
			if b != nil {
				pi.catchUp(planeDelivery{batch: b, next: lo + int64(b.Len()), hwm: hwm, haveHWM: haveHWM})
				b.Release()
			} else if err != nil {
				pi.ing.log.Warn("catch-up poll failed", "partition", pi.idx, "offset", lo, "err", err)
			}
			if fresh {
				pi.waitLag(hwm)
			}
			// Broker trouble must not strand the groups behind the plane,
			// where their mergers wait on them: retry until they end.
			if b == nil && !back.pause() {
				return
			}
			continue
		}
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
		if err != nil { // a stop's closed connection too: pause returns at once
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
		short, fresh := b.Len() < fetchMax, readHWM()
		pi.deliverBatch(b, hwm, fresh)
		if short && !back.pause() {
			return
		}
	}
}

// behind returns the next round behind the plane, [lo, hi): from the
// lowest position a group stands at there, up to fetchMax records, the
// next group's position or the plane, so a group ahead of a lower one
// waits for it; lo == hi when none stands there. It also reports whether
// a group is on the plane. Callers hold pi.mu.
func (pi *partIngest) behind() (lo, hi int64, fed bool) {
	lo, hi = pi.next, pi.next
	for _, sub := range pi.groups {
		switch {
		case !sub.behind:
			fed = true
		case sub.offset < lo:
			lo, hi = sub.offset, lo
		case sub.offset > lo && sub.offset < hi:
			hi = sub.offset
		}
	}
	return lo, min(hi, lo+fetchMax), fed
}

// catchUp applies a round read behind the plane to every group standing
// at its start, under pi.mu, and then settles: a group it brought to the
// plane splices there, which cannot move meanwhile as only the loop moves
// it, and one it brought to an older group's point folds.
func (pi *partIngest) catchUp(d planeDelivery) {
	pi.mu.Lock()
	defer pi.mu.Unlock()
	for _, sub := range pi.groups {
		if sub.behind && sub.offset == d.batch.Base {
			sub.apply(d)
		}
	}
	pi.settle()
}

// waitLag sets the lag gauges of the partition and of every group on the
// plane, which waits while the loop reads behind it, from a fresh high
// watermark.
func (pi *partIngest) waitLag(hwm int64) {
	pi.mu.Lock()
	defer pi.mu.Unlock()
	for _, sub := range pi.settle() {
		sub.setLag(hwm)
	}
	pi.lagGauge.Set(float64(hwm - pi.next))
}

// deliverBatch applies one pooled EventBatch to every group on the plane,
// in order, advances the plane position, and releases the batch. The
// position, the batch's Base and the groups are taken, and the batch
// applied, in one hold of pi.mu, so a group attaching at the new position
// misses it.
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
	for _, sub := range pi.settle() {
		sub.apply(d)
	}
	pi.mu.Unlock()
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
	for _, sub := range pi.settle() {
		sub.apply(d)
	}
	pi.mu.Unlock()
	pi.lagGauge.Set(0)
}

// settle splices every group behind the plane that has reached it, folds
// what can fold, and lists the groups on the plane in the loop's scratch,
// which only the loop uses. Callers hold pi.mu.
func (pi *partIngest) settle() []*subQueue {
	pi.fed = pi.fed[:0]
	for i := 0; i < len(pi.groups); i++ {
		sub := pi.groups[i]
		if sub.behind && sub.offset == pi.next {
			sub.behind = false
		}
		switch {
		case pi.fold(i):
			i-- // deleted at i
		case !sub.behind:
			pi.fed = append(pi.fed, sub)
		}
	}
	return pi.fed
}

// fold folds the group at i into the first older group of its key on its
// side of the plane at its point of the stream (absorb), and takes it off
// the partition. It reports whether it folded. Callers hold pi.mu.
func (pi *partIngest) fold(i int) bool {
	sub := pi.groups[i]
	for _, into := range pi.groups[:i] {
		if into.key == sub.key && into.behind == sub.behind && into.absorb(sub) {
			pi.groups = slices.Delete(pi.groups, i, i+1)
			pi.gauge()
			return true
		}
	}
	return false
}
