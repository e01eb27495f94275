package broker

import "streamapprox/internal/stream"

// Cluster is the read surface of a broker: what a Consumer reads
// through. It is satisfied by the in-process *Broker and the routing
// *ClusterClient, so the same reader works against a local aggregator
// and a remote cluster of one or more brokerd members. A
// Consumer reads through FetchBatch; Fetch is the record-form read
// (frames decoded at the edge) for callers that want rows. The broker
// keeps no reader positions: a caller resumes by constructing its
// Consumer at an offset it kept itself.
type Cluster interface {
	BatchFetcher
	Partitions(topic string) (int, error)
	Fetch(topic string, partition int, offset int64, max int) ([]Record, error)
	HighWatermark(topic string, partition int) (int64, error)
}

var (
	_ Cluster = (*Broker)(nil)
	_ Cluster = (*ClusterClient)(nil)
)

// BatchFetcher is the columnar fetch: one partition fetch decoded
// straight from the frame chunk into an EventBatch, no Record in
// between.
type BatchFetcher interface {
	FetchBatch(topic string, partition int, offset int64, max int, b *stream.EventBatch) (int, error)
}

// Consumer is a positioned reader of one partition: the offset of the
// next record to read is its whole state. It holds no route, no group
// membership and nothing fetched ahead, and is not safe for concurrent
// use.
type Consumer struct {
	broker    Cluster
	topic     string
	partition int
	offset    int64
}

// NewPartitionConsumer returns a reader of one partition positioned at
// offset (negative reads as 0). It makes no broker call: a bad topic or
// partition surfaces as the first PollBatch's error.
func NewPartitionConsumer(b Cluster, topicName string, partition int, offset int64) *Consumer {
	if offset < 0 {
		offset = 0
	}
	return &Consumer{broker: b, topic: topicName, partition: partition, offset: offset}
}

// PollBatch fetches up to max records at the reader's position as a
// pooled EventBatch in event-time order (nil when none are available)
// and advances past them; on error the position is untouched, so the
// next call reads the same round. The fetch happens now, never ahead of
// the caller's own pacing. The batch's Base is the offset of its first
// record in log order; the caller owns the batch and must Release it.
func (c *Consumer) PollBatch(max int) (*stream.EventBatch, error) {
	b := stream.GetEventBatch()
	n, err := c.broker.FetchBatch(c.topic, c.partition, c.offset, max, b)
	if err != nil || n == 0 {
		b.Release()
		return nil, err
	}
	c.offset += int64(n)
	// A no-op scan on the common already-ordered round.
	b.SortByTime()
	return b, nil
}

// FromEvent converts an engine event to a broker record: the stratum
// (sub-stream id) is the record key.
func FromEvent(e stream.Event) Record {
	return Record{Key: e.Stratum, Value: e.Value, Time: e.Time}
}
