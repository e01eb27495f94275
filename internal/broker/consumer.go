package broker

import "streamapprox/internal/stream"

// Cluster is the read surface of a broker. It is satisfied by the
// in-process *Broker and the routing *ClusterClient, so the same reader
// works against a local aggregator and a remote cluster of one or more
// brokerd members. Readers read through FetchBatch; Fetch is the
// record-form read (frames decoded at the edge) for callers that want
// rows. The broker keeps no reader positions: a reader fetches at an
// offset it keeps itself, and resumes there.
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

// FromEvent converts an engine event to a broker record: the stratum
// (sub-stream id) is the record key.
func FromEvent(e stream.Event) Record {
	return Record{Key: e.Stratum, Value: e.Value, Time: e.Time}
}
