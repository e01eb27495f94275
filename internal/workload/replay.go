package workload

import (
	"context"
	"time"

	"streamapprox/internal/broker"
	"streamapprox/internal/stream"
)

// Replayer feeds a materialized dataset into a broker topic at a
// controlled rate, the methodology of §6.1: "we built a tool to
// efficiently replay the case-study dataset as the input data stream...
// we tuned the replay tool to first feed 2000 messages/second and
// continued to increase the throughput until the system was saturated.
// Each message contained 200 data items."
type Replayer struct {
	// MessagesPerSecond is the replay rate; 0 replays at full speed.
	MessagesPerSecond int
	// ItemsPerMessage is the batch size per produced message (paper: 200).
	ItemsPerMessage int
}

// producer abstracts the in-process broker and the routing client.
type producer interface {
	Produce(topic string, recs []broker.Record) (int, error)
}

var (
	_ producer = (*broker.Broker)(nil)
	_ producer = (*broker.ClusterClient)(nil)
)

// Replay produces the events into the topic, pacing message sends to
// MessagesPerSecond. It returns the number of items produced. Replay
// stops early if ctx is cancelled.
func (r *Replayer) Replay(ctx context.Context, dst producer, topic string, events []stream.Event) (int, error) {
	itemsPerMsg := r.ItemsPerMessage
	if itemsPerMsg <= 0 {
		itemsPerMsg = 200
	}
	var tick *time.Ticker
	if r.MessagesPerSecond > 0 {
		tick = time.NewTicker(time.Second / time.Duration(r.MessagesPerSecond))
		defer tick.Stop()
	}
	produced := 0
	for start := 0; start < len(events); start += itemsPerMsg {
		end := start + itemsPerMsg
		if end > len(events) {
			end = len(events)
		}
		recs := make([]broker.Record, end-start)
		for i, e := range events[start:end] {
			recs[i] = broker.FromEvent(e)
		}
		if tick != nil {
			select {
			case <-tick.C:
			case <-ctx.Done():
				return produced, ctx.Err()
			}
		} else if ctx.Err() != nil {
			return produced, ctx.Err()
		}
		n, err := dst.Produce(topic, recs)
		if err != nil {
			return produced, err
		}
		produced += n
	}
	return produced, nil
}
