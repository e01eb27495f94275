package core

import (
	"slices"
	"sync"

	"streamapprox/internal/pane"
	"streamapprox/internal/query"
	"streamapprox/internal/sampling"
	"streamapprox/internal/stream"
	"streamapprox/internal/xrand"
)

// runPipelined executes the pipelined (Flink-like) systems: the stream is
// fanned out over `Workers` operator-chain replicas; each replica is the
// sampling operator of §4.2.2, a pane.Sampler that samples its records on
// the fly and emits one pane per slide segment ("the sampling operations
// are performed ... at every slide window interval in the Flink-based
// StreamApprox", §5.5). The native system is the same replica at fraction
// 1, which keeps every record. The replicas' panes are windowed after the
// run, in (segment, replica) order.
func runPipelined(cfg Config, events []stream.Event) (*RunStats, error) {
	fraction := cfg.Fraction
	if cfg.System.IsNative() {
		fraction = 1
	}
	rng := xrand.New(cfg.Seed)
	replicas := make([][]query.Pane, cfg.Workers)
	feeds := make([]chan *stream.EventBatch, cfg.Workers)
	var wg sync.WaitGroup
	for i := range feeds {
		ps := pane.NewSampler(cfg.WindowSlide, fraction, rng.SplitSeed())
		// The items that survive sampling flow to the aggregation operator
		// and pay the per-record processing cost there (all items, for the
		// native system). The operator chain is already one parallel
		// replica, so the job runs serially here.
		cut := func(start int64, s *sampling.Sample, _ int64) {
			if s == nil {
				return
			}
			for _, st := range s.Strata {
				_ = runJobSerial(st.Stratum, st.Values)
			}
			replicas[i] = append(replicas[i], query.Pane{Start: stream.TimeFromNanos(start), Summary: cfg.Query.Summarize(s)})
		}
		// A channel of size one: backpressure is the feeder blocking.
		feed := make(chan *stream.EventBatch, 1)
		feeds[i] = feed
		wg.Add(1)
		go func() {
			defer wg.Done()
			for b := range feed {
				ps.Push(b, 0, b.Len(), cut)
				b.Release()
			}
			ps.Close(cut)
		}()
	}

	// The feeder deals events round-robin, so replica i receives every
	// n-th event in time order, and hands each replica its events a chunk
	// at a time.
	bufs := make([]*stream.EventBatch, len(feeds))
	for i, e := range events {
		r := i % len(feeds)
		if bufs[r] == nil {
			bufs[r] = stream.GetEventBatch()
		}
		bufs[r].AppendEvent(e)
		if bufs[r].Len() == chunkSize {
			feeds[r] <- bufs[r]
			bufs[r] = nil
		}
	}
	for r, feed := range feeds {
		if bufs[r] != nil {
			feed <- bufs[r]
		}
		close(feed)
	}
	wg.Wait()

	// Stable: a segment's panes stay in replica order.
	panes := slices.Concat(replicas...)
	slices.SortStableFunc(panes, func(a, b query.Pane) int { return a.Start.Compare(b.Start) })
	w := newWindows(cfg)
	for _, p := range panes {
		w.Add(p.Start, p.Summary)
	}
	return &RunStats{Results: w.flush()}, nil
}

// chunkSize is the transport's buffer: a replica receives its records in
// chunks of this many, in order — the analogue of Flink's network
// buffers, which pipeline records through fixed-size buffers rather than
// paying a handoff per record.
const chunkSize = 128
