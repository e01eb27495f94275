package broker

import (
	"sort"
	"sync"
	"time"

	"streamapprox/internal/stream"
)

// Cluster is the read/commit surface a consumer needs from a broker. It
// is satisfied both by the in-process *Broker and by the TCP *Client, so
// the same consumer-group machinery works against a local aggregator and
// a remote brokerd.
type Cluster interface {
	Partitions(topic string) (int, error)
	Fetch(topic string, partition int, offset int64, max int) ([]Record, error)
	HighWatermark(topic string, partition int) (int64, error)
	Commit(group, topic string, partition int, offset int64) error
	Committed(group, topic string, partition int) (int64, error)
}

var (
	_ Cluster = (*Broker)(nil)
	_ Cluster = (*Client)(nil)
)

// BatchFetcher is the optional vectorized fetch surface: a broker that
// can decode one partition fetch straight into a columnar EventBatch
// (frame chunk → columns, no intermediate []Record). The in-process
// *Broker, the TCP *Client, and the routing *ClusterClient all
// implement it; wrappers around a Cluster should forward it to keep the
// consumer's batch path lit.
type BatchFetcher interface {
	FetchBatch(topic string, partition int, offset int64, max int, b *stream.EventBatch) (int, error)
}

var (
	_ BatchFetcher = (*Broker)(nil)
	_ BatchFetcher = (*Client)(nil)
	_ BatchFetcher = (*ClusterClient)(nil)
)

// recordsToBatch converts a row-form record slice into a columnar
// batch — the compatibility bridge for brokers without a native
// FetchBatch. base is the offset of recs[0].
func recordsToBatch(recs []Record, base int64, b *stream.EventBatch) int {
	for i := range recs {
		r := &recs[i]
		b.Append(b.Intern(r.Key), r.Value, timeToNanos(r.Time))
	}
	b.Base = base
	return len(recs)
}

// Consumer reads one topic from a broker as part of a consumer group,
// owning a fixed subset of partitions (static assignment: member i of m
// owns partitions p with p % m == i, Kafka's range-free analogue that
// needs no coordinator for a fixed membership).
//
// A consumer is single-threaded by default. StartPrefetch switches it
// to a double-buffered mode where a background goroutine fetches batch
// N+1 while the caller drains batch N.
type Consumer struct {
	broker    Cluster
	group     string
	topicName string
	parts     []int
	fetchMax  int

	// mu guards offsets (the delivered positions) against the
	// prefetcher applying advances concurrently with Offsets/Commit.
	mu      sync.Mutex
	offsets map[int]int64

	pre *prefetcher
}

// prefetcher is the background double-buffer: one batch queued in ch,
// one being fetched — so the broker round-trip for batch N+1 overlaps
// the caller processing batch N.
type prefetcher struct {
	ch        chan prefetchBatch
	done      chan struct{}
	closeOnce sync.Once
}

// prefetchBatch carries one fetched round plus the per-partition
// positions after it, applied to the consumer's offsets on delivery so
// Commit never covers records the caller has not yet seen.
type prefetchBatch struct {
	recs []Record
	pos  map[int]int64
	err  error
}

// NewConsumer returns a consumer for member `member` of `members` total in
// the group. Offsets resume from the group's committed positions.
func NewConsumer(b Cluster, group, topicName string, member, members int) (*Consumer, error) {
	n, err := b.Partitions(topicName)
	if err != nil {
		return nil, err
	}
	if members < 1 {
		members = 1
	}
	c := &Consumer{
		broker:    b,
		group:     group,
		topicName: topicName,
		offsets:   make(map[int]int64),
		fetchMax:  4096,
	}
	for p := 0; p < n; p++ {
		if p%members == member%members {
			c.parts = append(c.parts, p)
			off, err := b.Committed(group, topicName, p)
			if err != nil {
				return nil, err
			}
			c.offsets[p] = off
		}
	}
	return c, nil
}

// NewPartitionConsumer returns a consumer pinned to exactly one
// partition of a topic — the attach surface of a shared ingest plane,
// where one consumer per (topic, partition) serves every registered
// query. Offsets resume from the group's committed position for that
// partition; use Seek to override.
func NewPartitionConsumer(b Cluster, group, topicName string, partition int) (*Consumer, error) {
	n, err := b.Partitions(topicName)
	if err != nil {
		return nil, err
	}
	if partition < 0 || partition >= n {
		return nil, ErrBadPartition
	}
	off, err := b.Committed(group, topicName, partition)
	if err != nil {
		return nil, err
	}
	return &Consumer{
		broker:    b,
		group:     group,
		topicName: topicName,
		parts:     []int{partition},
		offsets:   map[int]int64{partition: off},
		fetchMax:  4096,
	}, nil
}

// SetFetchMax bounds the record count of each fetch round (default
// 4096). A catch-up consumer chasing a live plane uses it to stop
// exactly at the handoff offset instead of overshooting into records
// the plane will deliver. Must be called before StartPrefetch and not
// concurrently with Poll.
func (c *Consumer) SetFetchMax(n int) {
	if n > 0 {
		c.fetchMax = n
	}
}

// Partitions returns the partitions this consumer owns.
func (c *Consumer) Partitions() []int {
	out := make([]int, len(c.parts))
	copy(out, c.parts)
	return out
}

// Offsets returns the consumer's current (uncommitted) position per owned
// partition.
func (c *Consumer) Offsets() map[int]int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[int]int64, len(c.offsets))
	for p, off := range c.offsets {
		out[p] = off
	}
	return out
}

// Seek moves the consumer's position for an owned partition; it is a
// no-op for partitions the consumer does not own. Used to resume from a
// checkpointed offset instead of the group's committed one. Seek must
// be called before StartPrefetch: a running prefetcher has batches in
// flight at the old position.
func (c *Consumer) Seek(partition int, offset int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.offsets[partition]; !ok {
		return
	}
	if offset < 0 {
		offset = 0
	}
	c.offsets[partition] = offset
}

// fetchAll performs one fetch round across the consumer's partitions at
// the positions in pos, returning the records in event-time order — so
// the window buffer sees a near-sorted stream, as a time-synchronized
// aggregator would deliver. pos advances only when the whole round
// succeeds: a mid-round error discards the round's records, so
// advancing for the partitions fetched before the failure would lose
// them.
func (c *Consumer) fetchAll(pos map[int]int64) ([]Record, error) {
	var out []Record
	adv := make(map[int]int64, len(c.parts))
	for _, p := range c.parts {
		recs, err := c.broker.Fetch(c.topicName, p, pos[p], c.fetchMax)
		if err != nil {
			return nil, err
		}
		if len(recs) > 0 {
			adv[p] = int64(len(recs))
			out = append(out, recs...)
		}
	}
	for p, n := range adv {
		pos[p] += n
	}
	// Detect the overwhelmingly common already-ordered round (a single
	// partition's append-ordered records) with one linear scan, so the
	// per-batch sort and its closure run only on an actual inversion.
	if !recordsTimeOrdered(out) {
		sort.SliceStable(out, func(i, j int) bool { return out[i].Time.Before(out[j].Time) })
	}
	return out, nil
}

// recordsTimeOrdered reports whether recs' times are non-decreasing.
func recordsTimeOrdered(recs []Record) bool {
	for i := 1; i < len(recs); i++ {
		if recs[i].Time.Before(recs[i-1].Time) {
			return false
		}
	}
	return true
}

// fetchAllBatch is fetchAll's columnar form for a single-partition
// consumer: one fetch round decoded straight into a pooled EventBatch
// (natively when the broker implements BatchFetcher, through the record
// bridge otherwise). Returns nil on an empty round; the caller owns the
// returned batch's reference.
func (c *Consumer) fetchAllBatch(pos map[int]int64) (*stream.EventBatch, error) {
	p := c.parts[0]
	base := pos[p]
	b := stream.GetEventBatch()
	var n int
	if bf, ok := c.broker.(BatchFetcher); ok {
		var err error
		n, err = bf.FetchBatch(c.topicName, p, base, c.fetchMax, b)
		if err != nil {
			b.Release()
			return nil, err
		}
	} else {
		recs, err := c.broker.Fetch(c.topicName, p, base, c.fetchMax)
		if err != nil {
			b.Release()
			return nil, err
		}
		n = recordsToBatch(recs, base, b)
	}
	if n == 0 {
		b.Release()
		return nil, nil
	}
	pos[p] += int64(n)
	// Deliver in event-time order like fetchAll; a no-op scan on the
	// already-ordered common case.
	b.SortByTime()
	return b, nil
}

// Poll returns the next batch of records across the consumer's partitions
// and advances (but does not commit) its offsets. It returns nil when no
// new records are available. With a prefetcher running the batch was
// fetched (and sorted) ahead of time by the background goroutine.
func (c *Consumer) Poll() ([]Record, error) {
	if c.pre != nil {
		select {
		case b := <-c.pre.ch:
			if b.err != nil {
				return nil, b.err
			}
			c.mu.Lock()
			for p, off := range b.pos {
				c.offsets[p] = off
			}
			c.mu.Unlock()
			return b.recs, nil
		case <-c.pre.done:
			return nil, ErrClosed
		}
	}
	// Fetch outside the lock (it may be a network round trip) against a
	// snapshot, then re-apply — Offsets/Commit from another goroutine
	// never stall behind the fetch.
	c.mu.Lock()
	pos := make(map[int]int64, len(c.offsets))
	for p, off := range c.offsets {
		pos[p] = off
	}
	c.mu.Unlock()
	recs, err := c.fetchAll(pos)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	for p, off := range pos {
		c.offsets[p] = off
	}
	c.mu.Unlock()
	return recs, nil
}

// PollBatch is Poll's columnar form: it fetches the next round as a
// pooled EventBatch (nil when no new records are available) and
// advances the consumer's offsets. The caller owns the batch's
// reference and must Release it (after Retaining for any further
// consumers it fans the batch out to). Only single-partition consumers
// support PollBatch — a batch's offsets are consecutive from its Base.
// It is always synchronous — the fetch happens now, never ahead of the
// caller's own pacing sleep — and must not be mixed with StartPrefetch.
func (c *Consumer) PollBatch() (*stream.EventBatch, error) {
	if len(c.parts) != 1 {
		return nil, ErrBadPartition
	}
	c.mu.Lock()
	pos := make(map[int]int64, len(c.offsets))
	for p, off := range c.offsets {
		pos[p] = off
	}
	c.mu.Unlock()
	b, err := c.fetchAllBatch(pos)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	for p, off := range pos {
		c.offsets[p] = off
	}
	c.mu.Unlock()
	return b, nil
}

// StartPrefetch launches the background prefetcher. It is a no-op if
// one is already running. Stop it with Close.
func (c *Consumer) StartPrefetch() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.pre != nil {
		return
	}
	pos := make(map[int]int64, len(c.offsets))
	for p, off := range c.offsets {
		pos[p] = off
	}
	c.pre = &prefetcher{
		ch:   make(chan prefetchBatch, 1),
		done: make(chan struct{}),
	}
	go c.prefetchLoop(c.pre, pos)
}

// prefetchLoop owns pos, the fetch frontier, which runs ahead of
// c.offsets by the batches still queued. An empty or failed round is
// still delivered (the caller's poll cadence paces retries — the loop
// blocks handing over each batch, so it never spins the broker). On
// error fetchAll leaves pos untouched, so the frontier stays exactly
// "delivered plus queued" and the retry refetches only the failed
// round — never a batch already in the channel.
func (c *Consumer) prefetchLoop(pre *prefetcher, pos map[int]int64) {
	for {
		select {
		case <-pre.done:
			return
		default:
		}
		var pb prefetchBatch
		pb.recs, pb.err = c.fetchAll(pos)
		snap := make(map[int]int64, len(pos))
		for p, off := range pos {
			snap[p] = off
		}
		pb.pos = snap
		select {
		case pre.ch <- pb:
		case <-pre.done:
			return
		}
	}
}

// Close stops the prefetcher, if any. The consumer must not be polled
// afterwards.
func (c *Consumer) Close() error {
	c.mu.Lock()
	pre := c.pre
	c.mu.Unlock()
	if pre != nil {
		pre.closeOnce.Do(func() { close(pre.done) })
	}
	return nil
}

// Commit persists the consumer's current offsets to the group. With a
// prefetcher running this covers exactly the batches delivered by Poll,
// never records still sitting in the prefetch buffer.
func (c *Consumer) Commit() error {
	for _, p := range c.parts {
		c.mu.Lock()
		off := c.offsets[p]
		c.mu.Unlock()
		if err := c.broker.Commit(c.group, c.topicName, p, off); err != nil {
			return err
		}
	}
	return nil
}

// Lag returns the total number of records between the consumer's position
// and the high watermark across its partitions.
func (c *Consumer) Lag() (int64, error) {
	var lag int64
	for _, p := range c.parts {
		hw, err := c.broker.HighWatermark(c.topicName, p)
		if err != nil {
			return 0, err
		}
		c.mu.Lock()
		off := c.offsets[p]
		c.mu.Unlock()
		lag += hw - off
	}
	return lag, nil
}

// ToEvent converts a record to the engine's event type: the record key is
// the stratum (sub-stream id).
func ToEvent(r Record) stream.Event {
	return stream.Event{Stratum: r.Key, Value: r.Value, Time: r.Time}
}

// FromEvent converts an engine event to a broker record.
func FromEvent(e stream.Event) Record {
	return Record{Key: e.Stratum, Value: e.Value, Time: e.Time}
}

// ProduceEvents is a convenience producer: it converts events to records
// and appends them to the topic.
func ProduceEvents(b *Broker, topicName string, events []stream.Event) (int, error) {
	recs := make([]Record, len(events))
	for i, e := range events {
		recs[i] = FromEvent(e)
	}
	return b.Produce(topicName, recs)
}

// EventSource adapts a Consumer to the stream.Source interface: Next
// returns records one at a time, polling the broker when its buffer runs
// dry and giving up after `idle` empty polls (treating the stream as
// exhausted — appropriate for replayed finite datasets).
type EventSource struct {
	consumer *Consumer
	buf      []Record
	pos      int
	idle     int
	maxIdle  int
	backoff  time.Duration
}

// NewEventSource wraps a consumer. maxIdle is the number of consecutive
// empty polls after which the source reports end-of-stream; backoff is
// the pause between empty polls (0 for busy polling in tests).
func NewEventSource(c *Consumer, maxIdle int, backoff time.Duration) *EventSource {
	if maxIdle < 1 {
		maxIdle = 1
	}
	return &EventSource{consumer: c, maxIdle: maxIdle, backoff: backoff}
}

var _ stream.Source = (*EventSource)(nil)

// Next implements stream.Source.
func (s *EventSource) Next() (stream.Event, bool) {
	for s.pos >= len(s.buf) {
		recs, err := s.consumer.Poll()
		if err != nil {
			return stream.Event{}, false
		}
		if len(recs) == 0 {
			s.idle++
			if s.idle >= s.maxIdle {
				return stream.Event{}, false
			}
			if s.backoff > 0 {
				time.Sleep(s.backoff)
			}
			continue
		}
		s.idle = 0
		s.buf = recs
		s.pos = 0
	}
	e := ToEvent(s.buf[s.pos])
	s.pos++
	return e, true
}
