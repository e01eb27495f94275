// Package stream defines the shared data-plane types of StreamApprox: the
// event record flowing through every engine, the source/sink contracts, and
// small helpers for partitioning events across workers.
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

// Source produces events. Next returns the next event in the stream; it
// returns ok=false when the stream is exhausted. Implementations need not
// be safe for concurrent use; fan-out is the engine's job.
type Source interface {
	Next() (Event, bool)
}

// SourceFunc adapts a function to the Source interface.
type SourceFunc func() (Event, bool)

// Next calls f.
func (f SourceFunc) Next() (Event, bool) { return f() }

// Sink consumes query results or raw events.
type Sink interface {
	Emit(Event)
}

// SinkFunc adapts a function to the Sink interface.
type SinkFunc func(Event)

// Emit calls f.
func (f SinkFunc) Emit(e Event) { f(e) }

// SliceSource replays a fixed slice of events. It is the workhorse for
// tests and for the replay tool once a dataset has been materialized.
type SliceSource struct {
	events []Event
	pos    int
}

// NewSliceSource returns a Source that yields the given events in order.
// The slice is not copied; callers must not mutate it while the source is
// in use.
func NewSliceSource(events []Event) *SliceSource {
	return &SliceSource{events: events}
}

// Next returns the next event.
func (s *SliceSource) Next() (Event, bool) {
	if s.pos >= len(s.events) {
		return Event{}, false
	}
	e := s.events[s.pos]
	s.pos++
	return e, true
}

// Reset rewinds the source to the beginning.
func (s *SliceSource) Reset() { s.pos = 0 }

// Len returns the total number of events the source will yield.
func (s *SliceSource) Len() int { return len(s.events) }

// CollectSink appends every emitted event to an internal slice.
// It is not safe for concurrent use.
type CollectSink struct {
	Events []Event
}

// Emit records e.
func (c *CollectSink) Emit(e Event) { c.Events = append(c.Events, e) }

// Drain reads events from src until exhaustion and returns them.
func Drain(src Source) []Event {
	var out []Event
	for {
		e, ok := src.Next()
		if !ok {
			return out
		}
		out = append(out, e)
	}
}

// Interleave merges several per-stratum event slices into a single stream
// ordered by event time (stable for equal timestamps). It models the
// stream aggregator's view of disjoint sub-streams combined into one
// input stream (§2.1) when a broker is not in the loop.
func Interleave(streams ...[]Event) []Event {
	total := 0
	for _, s := range streams {
		total += len(s)
	}
	out := make([]Event, 0, total)
	idx := make([]int, len(streams))
	for len(out) < total {
		best := -1
		for i, s := range streams {
			if idx[i] >= len(s) {
				continue
			}
			if best == -1 || s[idx[i]].Time.Before(streams[best][idx[best]].Time) {
				best = i
			}
		}
		out = append(out, streams[best][idx[best]])
		idx[best]++
	}
	return out
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
