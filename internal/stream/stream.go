// Package stream defines the shared data-plane types of StreamApprox: the
// event record flowing through every engine and every tier, the columnar
// EventBatch the serving tier moves, and small helpers for partitioning
// events across workers.
//
// Terminology follows the paper (§2): the input data stream consists of
// sub-streams identified by their source; each sub-stream is a stratum for
// the stratified sampler.
package stream

import "time"

// Event is one data item in the input stream.
//
// Stratum identifies the sub-stream (data source) the item belongs to —
// e.g. a sensor id, a network protocol, or a NYC borough. Value is the
// numeric payload that linear queries (SUM/MEAN/COUNT, §3.2) aggregate.
// Time is the event time assigned by the source.
type Event struct {
	Stratum string    `json:"stratum"`
	Value   float64   `json:"value"`
	Time    time.Time `json:"time"`
}

// PartitionRoundRobin splits events into n partitions by round-robin
// assignment, the default distribution policy of the batch engine.
func PartitionRoundRobin(events []Event, n int) [][]Event {
	if n <= 0 {
		n = 1
	}
	parts := make([][]Event, n)
	per := (len(events) + n - 1) / n
	for i := range parts {
		parts[i] = make([]Event, 0, per)
	}
	for i, e := range events {
		parts[i%n] = append(parts[i%n], e)
	}
	return parts
}

// PartitionByStratum groups events by their stratum key, preserving the
// within-stratum order. It is the groupBy(strata) step used by the
// Spark-style stratified sampling baseline (§4.1.1).
func PartitionByStratum(events []Event) map[string][]Event {
	out := make(map[string][]Event)
	for _, e := range events {
		out[e.Stratum] = append(out[e.Stratum], e)
	}
	return out
}
