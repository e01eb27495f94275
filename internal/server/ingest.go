package server

import (
	"io"
	"log/slog"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"streamapprox/internal/broker"
	"streamapprox/internal/metrics"
	"streamapprox/internal/stream"
)

// traceSetter is implemented by broker connections that can stamp a
// wire-level trace ID on their requests (*broker.ClusterClient; the
// in-process broker has no wire and no-ops).
type traceSetter interface{ SetTraceID(uint64) }

// The shared ingest plane: exactly one reader per (topic, partition), the
// partition's loop, regardless of how many queries are registered. Each
// loop fetches a round once, decodes it once into a columnar EventBatch,
// and applies the (event-time sorted, read-only) batch itself to every
// sampling group it goes to, one after another. Broker fetch work is
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
// reads on at the plane, each round in one turn of the loop, until each
// group stands at the plane position and goes on with the plane, so no
// record is lost or duplicated. A group attaching ahead of the plane
// (From "latest") is on the plane, standing at its start until the plane
// reaches it.
//
// The plane keeps one event-time mark for the topic: the latest event
// time any partition loop has read. A partition that polls empty — the
// broker serves up to its committed high watermark, so an empty poll at
// the plane position means it is drained — for idleAdvanceFloor applies a
// marker to the groups at the plane position: a round without a batch,
// carrying the mark, which advances each group's sampler there, so
// windows a quiet partition would hold back still merge.

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
// the committed high watermark. It feeds only the two lag gauges (ingest,
// query), which nobody reads at batch rate — and one RPC per batch is a
// fifth of a saturated pipeline's requests.
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

// partIngest is the shell around one partition's value: the partition
// lock, the one loop that reads the partition and steps the value, the
// broker connection it reads over, and the partition's metrics.
type partIngest struct {
	ing     *ingest
	idx     int
	cluster broker.Cluster // dedicated connection when DialShard is set
	conn    io.Closer      // nil when sharing the control connection

	// mu is the partition lock: it guards p and everything of its groups
	// (see group.go), and stopped. The loop calls p with mu held, and
	// fetches, backs off and reads the high watermark outside it.
	mu      sync.Mutex
	p       partition
	stopped bool
	done    chan struct{}

	// The metrics count what the loop reads at the plane, once per
	// record whatever the queries behind the plane read again.
	recordsMetric *metrics.Counter
	queriesGauge  *metrics.Gauge
	samplersGauge *metrics.Gauge // one per sampling group
	lagGauge      *metrics.Gauge
	throughput    *metrics.Meter
	batchHist     *metrics.Histogram // records per round read at the plane
	decodeHist    *metrics.Histogram // seconds blocked fetching+decoding a round at the plane
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
				"records read at the plane, once for all queries, per partition", l),
			queriesGauge: reg.Gauge("saproxd_ingest_queries",
				"queries attached to the partition's shared plane", l),
			samplersGauge: reg.Gauge("saproxd_ingest_samplers",
				"pane samplers the partition's attached queries run: one per sampling group", l),
			lagGauge: reg.Gauge("saproxd_ingest_lag_records",
				"records between the plane position and the partition high watermark", l),
			batchHist: reg.Histogram("saproxd_ingest_batch_records",
				"records per round the partition loop read at the plane", l),
			decodeHist: reg.Histogram("saproxd_ingest_decode_seconds",
				"seconds the partition loop blocked on fetch+decode of one round at the plane", l),
		}
		pi.throughput = metrics.NewMeter(0, reg.Gauge("saproxd_ingest_throughput_items_per_s",
			"smoothed per-partition ingest rate", l))
		ing.parts = append(ing.parts, pi)
	}
	return ing, nil
}

// attach puts one query shard's group — a group of one — on a partition
// at the group's position, where the loop reads for it (see partition),
// starting the loop on first use.
func (ing *ingest) attach(sh *shard) {
	pi := ing.parts[sh.idx]
	pi.mu.Lock()
	defer pi.mu.Unlock()
	if !pi.p.placed && !pi.stopped {
		ing.wg.Add(1)
		go pi.loop()
	}
	pi.p.attach(sh.group)
	pi.gauge()
}

// detach takes a shard off its partition into a group of its own (see
// partition.detach).
func (ing *ingest) detach(sh *shard) {
	pi := ing.parts[sh.idx]
	pi.mu.Lock()
	defer pi.mu.Unlock()
	pi.p.detach(sh)
	pi.gauge()
}

// gauge publishes the partition's attached queries and its samplers, one
// per sampling group. Callers hold pi.mu.
func (pi *partIngest) gauge() {
	n := 0
	for _, g := range pi.p.groups {
		n += len(g.members)
	}
	pi.queriesGauge.Set(float64(n))
	pi.samplersGauge.Set(float64(len(pi.p.groups)))
}

// stop halts every partition loop and closes dedicated connections. No
// round follows it; groups stay on the partitions until they detach.
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

// loop is the partition's one reader and the shell of its value: each
// turn reads the one round the value asks for (partition.read) — behind
// the plane while a group stands there, so the plane waits for the late
// groups, and at the plane otherwise — and hands it to the value under
// pi.mu. An unreachable broker shows up as a failed read, which the next
// turn retries at the same position, so broker trouble never strands a
// group behind the plane, where its merger waits on it. A round that read
// less than it asked for — none, or the partition drained — is followed
// by exactly one back-off, any other by the next read at once, and
// nothing is read ahead of a sleep, so a record waits at most one
// back-off. With no group on the partition the loop idles without
// advancing, so an attacher at the offset joins seamlessly.
func (pi *partIngest) loop() {
	defer pi.ing.wg.Done()
	back := backoff{done: pi.done, d: pi.ing.backoff}
	var idleSince, hwmAt time.Time
	var hwm int64
	// readHWM reads the high watermark for the lag gauges (best effort) at
	// most every hwmEvery, and reports whether it read it now.
	readHWM := func() bool {
		if time.Since(hwmAt) < hwmEvery {
			return false
		}
		hwmAt = time.Now()
		h, err := pi.cluster.HighWatermark(pi.ing.topic, pi.idx)
		if err == nil {
			hwm = h
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
		lo, hi := pi.p.read()
		plane := lo == pi.p.next
		pi.mu.Unlock()
		if lo == hi {
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
		b, err := pi.poll(lo, int(hi-lo))
		if plane {
			pi.decodeHist.Observe(time.Since(t0).Seconds())
		}
		fresh := (b != nil || err != nil) && readHWM()
		// An empty poll at the plane means the partition is drained: the
		// broker serves up to its committed high watermark.
		marker := false
		switch drained := plane && b == nil && err == nil; {
		case !drained:
			idleSince = time.Time{}
		case idleSince.IsZero():
			idleSince = time.Now()
		case time.Since(idleSince) >= idleAdvanceFloor:
			idleSince, marker = time.Now(), true
		}
		if err != nil && !plane {
			pi.ing.log.Warn("catch-up poll failed", "partition", pi.idx, "offset", lo, "err", err)
		}
		if b != nil && plane {
			pi.count(b)
		}
		pi.mu.Lock()
		switch {
		case b != nil:
			pi.p.round(b)
		case marker:
			pi.p.idle(mark)
			// The drained position stands for the high watermark.
			hwm, fresh = pi.p.next, true
		}
		if fresh {
			pi.p.lag(hwm)
			pi.lagGauge.Set(float64(hwm - pi.p.next))
		}
		pi.gauge()
		pi.mu.Unlock()
		short := b == nil || int64(b.Len()) < hi-lo
		if b != nil {
			b.Release()
		}
		if short && !back.pause() {
			return
		}
	}
}

// count counts a round read at the plane in the partition's metrics and
// moves the plane's mark to its latest event time.
func (pi *partIngest) count(b *stream.EventBatch) {
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
}

// poll fetches up to max records of the partition at offset as a pooled
// batch in event-time order, nil when there are none; the caller owns the
// batch and must Release it. The fetch happens now, never ahead of the
// loop's own pacing.
func (pi *partIngest) poll(offset int64, max int) (*stream.EventBatch, error) {
	b := stream.GetEventBatch()
	n, err := pi.cluster.FetchBatch(pi.ing.topic, pi.idx, offset, max, b)
	if err != nil || n == 0 {
		b.Release()
		return nil, err
	}
	b.SortByTime() // a no-op scan on the common already-ordered round
	return b, nil
}
