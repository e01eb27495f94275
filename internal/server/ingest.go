package server

import (
	"io"
	"log/slog"
	"slices"
	"strconv"
	"sync"
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
// regardless of how many queries are registered.
// Each partition loop fetches a batch once, decodes it once into a
// columnar EventBatch, and fans the (event-time sorted, read-only) batch
// out by reference to every attached query's per-shard sink. Broker fetch work is O(partitions),
// not O(queries × partitions) — the property that lets one middle tier
// serve thousands of concurrent queries over a single topic read.
//
// Queries attach and detach dynamically. A query attaching at an
// offset the plane has already passed replays the gap through a short
// private catch-up consumer and splices into the live plane exactly at
// the handoff offset (the splice happens under the plane's delivery
// lock, so no record is lost or duplicated). A query attaching ahead
// of the plane (From "latest") rides the plane immediately and drops
// records below its requested start per-sub.
//
// On each partition the shards whose samplers would be interchangeable
// — the same slide and the same fixed fraction — form one SAMPLING
// GROUP: one delivery queue, one drainer, and one pane sampler the group
// owns, whose every pane each sharing member summarises through its own
// query. A shard that cannot share (an adaptive fraction under a target
// error) is a group of one and samples for itself.
//
// Fan-out is decoupled from the partition loop by a BOUNDED per-group
// delivery queue: the loop enqueues each batch (a cheap slice ref) and
// the group's drainer applies it to the group's sampler. A group
// whose drainer falls a full queue behind is SHED — detached on the
// spot, and each member re-attached through the catch-up path once the
// drainer empties — so one slow group rereads its backlog from the
// broker instead of stalling every peer on the partition loop. Catch-up
// work itself runs under a small semaphore, so a burst of late
// registrations cannot open unbounded private consumers.

// fetchMax bounds one fetch round's record count, on the plane's
// consumers and the catch-up consumers alike.
const fetchMax = 4096

// idleAdvanceAfter is the number of consecutive empty polls after which
// an idle partition considers pushing its attached sinks to the peers'
// watermark. High enough that a partition that has merely caught up
// with a live producer does not race ahead and drop the producer's next
// records as late.
const idleAdvanceAfter = 10

// idleAdvanceFloor is the minimum WALL-CLOCK time a partition must stay
// empty before idle punctuation fires. Poll counts alone are a bad
// idleness signal under tight backoffs: a broker riding out a slow
// fsync or a failover replay looks identical to a truly quiet partition
// for tens of milliseconds, and punctuating then advances the shard to
// its peers' watermark — so the stalled records, when they finally
// commit, land in windows that have already fired and are dropped as
// late. The floor makes "idle" mean "idle longer than any transient
// stall the chaos plane injects", trading punctuation latency on truly
// sparse partitions (bounded, and invisible next to window slides) for
// accuracy under faults.
const idleAdvanceFloor = 250 * time.Millisecond

// hwmEvery bounds how often a busy partition loop asks the broker for
// the committed high watermark. Delivered batches carry it only to feed
// the two lag gauges (ingest, query), which nobody reads at
// batch rate — and one RPC per batch is a fifth of a saturated
// pipeline's requests.
const hwmEvery = 100 * time.Millisecond

// watchdogAfter is the number of consecutive failed polls after which a
// partition loop declares its path stalled and reroutes: refresh the
// routing client's metadata. Polls already fail fast (the broker client's
// per-request deadlines), so this bounds how long a partition pipeline
// keeps retrying a path the cluster has failed away from.
const watchdogAfter = 5

// metaRefresher is implemented by routing clients that can be told to
// re-poll cluster metadata (*broker.ClusterClient); the in-process
// broker and single-connection clients have nothing to refresh.
type metaRefresher interface{ Refresh() error }

// The per-query, per-partition delivery target is *shard: consumeLocked
// applies one event-time sorted EventBatch ending at offset next
// (exclusive; the batch is shared across queries and treated as
// read-only), idleLocked is the idle-partition punctuation.

// ingest is one plane: a set of partition loops over one topic.
type ingest struct {
	cluster    broker.Cluster // control-plane + catch-up connection
	topic      string
	backoff    time.Duration
	log        *slog.Logger
	reg        *metrics.Registry
	queueDepth int // per-group delivery queue bound, in batches

	// catchupSem bounds simultaneous catch-up consumers across the
	// whole plane: a burst of late registrations queues here instead of
	// opening one private broker consumer each.
	catchupSem    chan struct{}
	catchupActive *metrics.Gauge

	parts []*partIngest
	wg    sync.WaitGroup
}

// subQueue is one sampling group on one partition: its bounded delivery
// queue — the plane loop enqueues, the drainer goroutine applies each
// batch to every member — and the pane sampler its members share. The
// group's sampler samples each batch once, and every sharing member
// summarises its panes; a private member (out of step with the group)
// samples for itself until it stands at the group's point of the stream,
// then shares. A group under the zero key has no sampler: its one member
// samples for itself.
type subQueue struct {
	key groupKey // zero: a group of one, never joined
	// mu guards members, ps, offset and summed, and is held across each
	// delivery's application, so shards join and leave between batches.
	mu      sync.Mutex
	members []*shard      // members[0] shares ps while the group has one
	ps      *pane.Sampler // the shared sampler (nil under the zero key)
	offset  int64         // the next offset ps samples
	summed  []*shard      // cut's scratch: the members summarised so far
	ch      chan planeDelivery
	// overflowAt is the resume offset recorded when the queue overflows
	// (-1 otherwise). Written under the partition lock before ch is
	// closed; the drainer reads it after draining, so the close is the
	// memory barrier.
	overflowAt int64
	done       chan struct{}  // closed when the drainer has fully exited
	samplers   *metrics.Gauge // the partition's saproxd_ingest_samplers
}

// groupKey is what makes two shards' samplers interchangeable on a
// partition: the slide and the fixed fraction of their sessions.
type groupKey struct {
	slide    time.Duration
	fraction float64
}

// planeDelivery is one fan-out unit: a shared columnar batch or an idle
// punctuation marker. A batch delivery carries one reference per
// enqueued sub; the drainer Releases it after applying. A marker carries
// each attached shard's job watermark as of its queueing (read-only).
type planeDelivery struct {
	batch   *stream.EventBatch
	next    int64
	hwm     int64
	haveHWM bool
	idle    bool
	marks   map[*shard]time.Time
}

// partIngest is the plane for one partition: one consumer, one loop,
// any number of attached per-query delivery queues.
type partIngest struct {
	ing     *ingest
	idx     int
	cluster broker.Cluster // dedicated connection when DialShard is set
	conn    io.Closer      // nil when sharing the control connection

	// mu guards subs, groups and next. Enqueueing happens with mu held so
	// a catch-up splice (pos == next, attach) is atomic against the loop
	// advancing next; the enqueue itself never blocks.
	mu      sync.Mutex
	subs    map[*shard]*subQueue // every attached shard's group
	groups  []*subQueue
	next    int64 // next offset the plane will deliver; set by the first attach
	started bool
	stopped bool
	done    chan struct{}

	recordsMetric *metrics.Counter
	queriesGauge  *metrics.Gauge
	samplersGauge *metrics.Gauge // group members sampling for themselves
	lagGauge      *metrics.Gauge
	throughput    *metrics.Meter
	batchHist     *metrics.Histogram // records per delivered columnar batch
	decodeHist    *metrics.Histogram // seconds blocked fetching+decoding a round
}

// queueDepth bounds each sampling group's per-partition delivery queue,
// in batches: a group that falls a full queue behind is shed to the
// catch-up path instead of stalling the partition loop.
const queueDepth = 64

// catchupWorkers bounds the simultaneous catch-up consumers of a plane,
// so a burst of late queries cannot open unbounded private consumers.
const catchupWorkers = 4

// newIngest builds a plane with one (not yet started) partition loop
// per partition. When dial is non-nil each partition gets a dedicated
// broker connection, closed on stop.
func newIngest(cluster broker.Cluster, dial func() (broker.Cluster, error),
	topic string, parts int, backoff time.Duration,
	log *slog.Logger, reg *metrics.Registry) (*ingest, error) {
	ing := &ingest{
		cluster: cluster, topic: topic, backoff: backoff, log: log,
		reg: reg, queueDepth: queueDepth,
		catchupSem: make(chan struct{}, catchupWorkers),
		catchupActive: reg.Gauge("saproxd_catchup_active",
			"late-registration catch-up consumers currently running", nil),
	}
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
// sampling group its job's key names — sharing the group's sampler when
// it stands at the group's point of the stream, as a private member
// otherwise — or into a new group of its own, which takes its sampler
// when the key lets others share it. Batches already queued below the
// shard's offset are skipped for it.
func (pi *partIngest) join(sh *shard) {
	sh.skipToOffset()
	pi.samplersGauge.Add(1)
	key := sh.job.groupKey()
	i := slices.IndexFunc(pi.groups, func(sub *subQueue) bool { return key != groupKey{} && sub.key == key })
	if i < 0 {
		sub := &subQueue{key: key, members: []*shard{sh}, samplers: pi.samplersGauge,
			ch: make(chan planeDelivery, pi.ing.queueDepth), overflowAt: -1, done: make(chan struct{})}
		if key != (groupKey{}) {
			sub.take(sh)
		}
		pi.groups = append(pi.groups, sub)
		pi.subs[sh] = sub
		go pi.drain(sub)
	} else {
		sub := pi.groups[i]
		pi.subs[sh] = sub
		sub.mu.Lock()
		sub.members = append(sub.members, sh)
		sub.share(sh)
		sub.mu.Unlock()
	}
	pi.queriesGauge.Set(float64(len(pi.subs)))
}

// drain is the group's delivery worker: it applies queued batches to
// the members in order. When the queue closes the group dissolves, every
// member keeping a sampler of its own (see dissolve); a shed group's members then
// replay the rest through the catch-up path, each re-splicing into the
// live plane.
func (pi *partIngest) drain(sub *subQueue) {
	for d := range sub.ch {
		if d.idle {
			sub.idle(d)
		} else {
			sub.apply(d)
			d.batch.Release()
		}
	}
	resume := sub.overflowAt // safe: written before close(sub.ch)
	sub.mu.Lock()
	members := sub.members
	sub.dissolve()
	sub.mu.Unlock()
	close(sub.done)
	if resume >= 0 {
		for _, sh := range members {
			sh.shed.Inc()
			// j.wg.Add happened at shed time, under pi.mu; catchUp calls Done.
			go pi.catchUp(sh.job, sh, resume)
		}
	}
}

// attach joins one query shard to a partition plane, starting the loop
// on first use. from is the shard's delivery watermark: behind the
// plane it is replayed through a catch-up goroutine (tracked in the
// job's WaitGroup) before splicing live; at or ahead of the plane the
// shard attaches immediately, skipping records below from.
func (ing *ingest) attach(j *job, sh *shard, from int64) {
	pi := ing.parts[sh.idx]
	pi.mu.Lock()
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
		pi.mu.Unlock()
		return
	}
	pi.mu.Unlock()
	j.wg.Add(1)
	go pi.catchUp(j, sh, from)
}

// detach takes a shard out of its group, so no consume call can follow
// detach. The last member closes the group's queue and waits out its
// drainer, which applies what is queued first. A shard mid-catch-up (or
// shed) has no group; its goroutine is tracked by the job's WaitGroup
// and aborts on the job's done channel.
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
	sub.mu.Lock()
	last := len(sub.members) == 1
	if last {
		pi.groups = slices.DeleteFunc(pi.groups, func(o *subQueue) bool { return o == sub })
		close(sub.ch)
	} else {
		sub.remove(sh)
	}
	sub.mu.Unlock()
	pi.mu.Unlock()
	if last {
		<-sub.done
	}
}

// stop halts every partition loop, closes dedicated connections, and
// drains every attached queue. Attached shards receive no further
// plane deliveries once stop returns (catch-up goroutines are the
// job's, stopped by job.stop).
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
	// With the loops stopped nothing enqueues anymore; close the queues
	// and wait out the drainers so every delivered batch is applied.
	var waits []*subQueue
	for _, pi := range ing.parts {
		pi.mu.Lock()
		for _, sub := range pi.groups {
			close(sub.ch)
			waits = append(waits, sub)
		}
		pi.groups = nil
		clear(pi.subs)
		pi.queriesGauge.Set(0)
		pi.mu.Unlock()
	}
	for _, sub := range waits {
		<-sub.done
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

// loop is the partition's single reader: a broker.Consumer positioned
// at the plane offset (constructing it costs no broker call — an
// unreachable broker shows up as a failed poll, which the loop already
// retries), polled synchronously. The poll interval belongs to this
// loop: a round that filled fetchMax is followed by the next fetch at
// once (catch-up runs at full speed), a round that drained the
// partition — short or empty — by exactly one back-off, and nothing is
// ever fetched ahead of a sleep, so a fetched round is never older than
// the fetch itself and a record waits at most one back-off. With no
// sinks attached the loop idles without advancing, so a future attacher
// at the current offset joins seamlessly.
func (pi *partIngest) loop(start int64) {
	defer pi.ing.wg.Done()
	cons := broker.NewPartitionConsumer(pi.cluster, pi.ing.topic, pi.idx, start)
	idle, fails := 0, 0
	var idleSince, hwmAt time.Time
	for {
		select {
		case <-pi.done:
			return
		default:
		}
		pi.mu.Lock()
		nsubs := len(pi.subs)
		pi.mu.Unlock()
		if nsubs == 0 {
			// Nobody listening: pause without advancing the plane.
			if !sleepOrDone(pi.done, pi.ing.backoff) {
				return
			}
			continue
		}
		t0 := time.Now()
		b, err := cons.PollBatch(fetchMax)
		pi.decodeHist.Observe(time.Since(t0).Seconds())
		if err != nil {
			select {
			case <-pi.done:
				return
			default:
			}
			fails++
			if fails >= watchdogAfter {
				fails = 0
				pi.reroute()
			}
			if !sleepOrDone(pi.done, pi.ing.backoff) {
				return
			}
			continue
		}
		fails = 0
		if b == nil {
			if idle == 0 {
				idleSince = time.Now()
			}
			idle++
			// Punctuate only a CONFIRMED-idle partition: enough empty
			// polls, enough wall-clock silence, and the broker agrees
			// there is nothing committed left to read. The drain check
			// costs one RPC, so it runs every idleAdvanceAfter polls,
			// not every poll.
			if idle%idleAdvanceAfter == 0 && time.Since(idleSince) >= idleAdvanceFloor {
				if hwm, ok := pi.drained(); ok {
					pi.idleAdvance(hwm)
				}
			}
			if !sleepOrDone(pi.done, pi.ing.backoff) {
				return
			}
			continue
		}
		idle = 0
		// A high-watermark read (best effort) for the lag gauges, at most
		// every hwmEvery; an idle partition's drain check refreshes them.
		hwm, haveHWM := int64(0), false
		if now := time.Now(); now.Sub(hwmAt) >= hwmEvery {
			hwmAt = now
			h, err := pi.cluster.HighWatermark(pi.ing.topic, pi.idx)
			hwm, haveHWM = h, err == nil
		}
		short := b.Len() < fetchMax
		pi.deliverBatch(b, hwm, haveHWM)
		if short && !sleepOrDone(pi.done, pi.ing.backoff) {
			return
		}
	}
}

// reroute is the partition watchdog's action: force a cluster-metadata
// refresh, so the routing layer learns about a failover the stalled
// path masked. The consumer holds no route and nothing fetched ahead,
// so there is nothing of it to rebuild.
func (pi *partIngest) reroute() {
	r, ok := pi.cluster.(metaRefresher)
	if !ok {
		return
	}
	if err := r.Refresh(); err != nil {
		pi.ing.log.Warn("watchdog refresh failed", "partition", pi.idx, "err", err)
		return
	}
	pi.ing.log.Info("watchdog refreshed routing", "partition", pi.idx)
}

// deliverBatch fans one pooled EventBatch out by reference to every
// sampling group's delivery queue and advances the plane position. It
// runs under pi.mu so catch-up splices are atomic, but never blocks: a
// group whose bounded queue is full is shed — detached here, with its
// drainer sending every member through the catch-up path at the offset
// where delivery stopped — so one slow group cannot stall the partition
// loop or its peers. The batch's Base is stamped with the plane offset
// before the first enqueue (the channel send is the memory barrier), each
// successful enqueue carries one Retained reference the drainer Releases
// after applying, a shed group's reference is returned immediately, and
// the loop's own reference from PollBatch is dropped once fan-out
// finishes — so the batch goes back to the pool the moment the last
// drainer is done with it.
func (pi *partIngest) deliverBatch(b *stream.EventBatch, hwm int64, haveHWM bool) {
	n := int64(b.Len())
	pi.recordsMetric.Add(float64(n))
	pi.throughput.Mark(n)
	pi.batchHist.Observe(float64(n))
	pi.mu.Lock()
	base := pi.next
	next := base + n
	pi.next = next
	b.Base = base // shards compute skip positions relative to Base
	d := planeDelivery{batch: b, next: next, hwm: hwm, haveHWM: haveHWM}
	kept := pi.groups[:0]
	for _, sub := range pi.groups {
		b.Retain()
		select {
		case sub.ch <- d:
			kept = append(kept, sub)
			continue
		default:
		}
		// Queue full: shed the group. Its drainer has applied (or still
		// holds queued) everything below base, so base is exactly where
		// every member's catch-up must resume.
		b.Release() // the shed group never takes its reference
		sub.overflowAt = base
		for sh, of := range pi.subs {
			if of == sub {
				delete(pi.subs, sh)
				sh.job.wg.Add(1) // the drainer's catch-up continuation
				pi.ing.log.Warn("delivery queue full; shedding to catch-up",
					"query", sh.job.id, "partition", pi.idx, "offset", base)
			}
		}
		close(sub.ch)
		pi.queriesGauge.Set(float64(len(pi.subs)))
	}
	clear(pi.groups[len(kept):])
	pi.groups = kept
	pi.mu.Unlock()
	b.Release() // the loop's reference from PollBatch
	if haveHWM {
		pi.lagGauge.Set(float64(hwm - next))
	}
}

// drained reports whether the plane has delivered every record the
// broker will currently serve: the committed high watermark, which it
// returns, has not moved past the delivered offset. Best effort — an
// unreachable broker (failover in progress) reads as NOT drained, which
// is exactly when punctuating would be wrong.
func (pi *partIngest) drained() (hwm int64, ok bool) {
	hwm, err := pi.cluster.HighWatermark(pi.ing.topic, pi.idx)
	if err != nil {
		return 0, false
	}
	pi.mu.Lock()
	next := pi.next
	pi.mu.Unlock()
	pi.lagGauge.Set(float64(hwm - next))
	return hwm, next >= hwm
}

// idleAdvance enqueues an idle punctuation for every sampling group,
// pushing event-time watermarks forward on a quiet partition so windows
// a sparsely keyed partition would hold back still merge, and carrying
// the drain check's high watermark so the queries' lag gauges settle.
// The marker carries each attached shard's job watermark read now, not
// when a lagging drainer reaches it: records queued behind it are not
// late. Reading them under pi.mu takes shard locks after the plane's, as
// the lock order has it. Best effort: a full queue skips the marker (the
// next one fires again).
func (pi *partIngest) idleAdvance(hwm int64) {
	pi.mu.Lock()
	marks := make(map[*shard]time.Time, len(pi.subs))
	for sh := range pi.subs {
		marks[sh] = sh.job.maxWatermark()
	}
	for _, sub := range pi.groups {
		select {
		case sub.ch <- planeDelivery{idle: true, hwm: hwm, marks: marks}:
		default:
		}
	}
	pi.mu.Unlock()
}

// catchUp replays [from, plane position) to one late-attaching (or
// shed) shard through a private consumer, then splices it into the live
// plane at the handoff offset. The splice check runs under pi.mu: when
// pos has reached pi.next the plane cannot advance concurrently, so
// attaching there is exactly-once. The chase is abandoned when the job
// stops. Admission runs through the plane's catch-up semaphore, so a
// burst of late registrations is worked off a few consumers at a time.
func (pi *partIngest) catchUp(j *job, sh *shard, from int64) {
	defer j.wg.Done()
	select {
	case pi.ing.catchupSem <- struct{}{}:
	case <-j.done:
		return
	}
	pi.ing.catchupActive.Add(1)
	defer func() {
		pi.ing.catchupActive.Add(-1)
		<-pi.ing.catchupSem
	}()
	cons := broker.NewPartitionConsumer(pi.ing.cluster, pi.ing.topic, pi.idx, from)
	pos := from
	for {
		select {
		case <-j.done:
			return
		default:
		}
		pi.mu.Lock()
		target := pi.next
		if pos >= target {
			if !j.isStopped() {
				pi.join(sh)
			}
			pi.mu.Unlock()
			return
		}
		pi.mu.Unlock()
		// Bound the round so the chase stops exactly at the handoff
		// offset, never overshooting into records the plane delivers.
		max := fetchMax
		if int64(max) > target-pos {
			max = int(target - pos)
		}
		b, err := cons.PollBatch(max) // returned in event-time order
		if err != nil || b == nil {
			if err != nil {
				// Transient broker trouble must not strand the shard
				// detached forever (its merger would wait on its watermark
				// for every window): retry until the job stops.
				pi.ing.log.Warn("catch-up poll failed", "query", j.id, "partition", pi.idx, "err", err)
			}
			if !sleepOrDone(j.done, pi.ing.backoff) {
				return
			}
			continue
		}
		pos += int64(b.Len())
		sh.mu.Lock()
		sh.consumeLocked(b, pos)
		sh.mu.Unlock()
		b.Release()
	}
}
