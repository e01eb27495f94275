// Package pipeline implements the pipelined stream processing substrate
// (§2.2): the model of Apache Flink, where each data item is forwarded to
// the next operator as soon as it is ready, without forming batches.
//
// A pipeline is a linear chain of operators connected by channels of
// size one (backpressure is the channels blocking). Each operator runs in
// its own goroutine; the runner owns all goroutine lifetimes and Run
// returns only after every stage has drained and flushed.
//
// The Flink-based StreamApprox system plugs its sampling operator into
// this chain (§4.2.2): "we created a sampling operator by implementing
// the algorithm described in §3.2. This operator samples input data items
// on-the-fly."
package pipeline

import (
	"context"
	"sync"

	"streamapprox/internal/stream"
)

// Operator is one stage of a pipeline. Process receives each input event
// and emits zero or more events downstream; Flush is called exactly once
// after the upstream is exhausted, for end-of-stream work (firing partial
// windows, emitting final aggregates).
//
// An operator instance is owned by a single goroutine: implementations
// need no internal locking unless they share state externally.
type Operator interface {
	Process(e stream.Event, emit func(stream.Event))
	Flush(emit func(stream.Event))
}

// MapOp transforms each event 1:1.
type MapOp struct {
	Fn func(stream.Event) stream.Event
}

// Process implements Operator.
func (m MapOp) Process(e stream.Event, emit func(stream.Event)) { emit(m.Fn(e)) }

// Flush implements Operator.
func (MapOp) Flush(func(stream.Event)) {}

// FilterOp forwards only events for which Fn returns true.
type FilterOp struct{ Fn func(stream.Event) bool }

// Process implements Operator.
func (f FilterOp) Process(e stream.Event, emit func(stream.Event)) {
	if f.Fn(e) {
		emit(e)
	}
}

// Flush implements Operator.
func (FilterOp) Flush(func(stream.Event)) {}

// FlatMapOp transforms each event into zero or more events.
type FlatMapOp struct {
	Fn func(stream.Event, func(stream.Event))
}

// Process implements Operator.
func (f FlatMapOp) Process(e stream.Event, emit func(stream.Event)) { f.Fn(e, emit) }

// Flush implements Operator.
func (FlatMapOp) Flush(func(stream.Event)) {}

// Pipeline is a runnable operator chain.
type Pipeline struct {
	ops []Operator
}

// New returns a pipeline over the given operator chain (first operator
// receives source events).
func New(ops ...Operator) *Pipeline {
	return &Pipeline{ops: ops}
}

// chunkSize is the pipelining buffer: operators still see items one at a
// time and in order, but the channel transport moves items in small
// chunks — the analogue of Flink's network buffers, which pipeline
// records through fixed-size buffers rather than paying a handoff per
// record.
const chunkSize = 128

// Run streams src through the operator chain into sink. It blocks until
// the source is exhausted and every operator has flushed, or until ctx is
// cancelled (in which case in-flight items may be dropped). Run returns
// the number of events drawn from the source.
func (p *Pipeline) Run(ctx context.Context, src stream.Source, sink stream.Sink) int64 {
	// Channels of size one per the channel-size guideline; the pipeline
	// depth plus the chunk buffers provide all the buffering a pipelined
	// engine needs.
	chans := make([]chan []stream.Event, len(p.ops)+1)
	for i := range chans {
		chans[i] = make(chan []stream.Event, 1)
	}

	var wg sync.WaitGroup
	var produced int64

	// Source stage.
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(chans[0])
		buf := make([]stream.Event, 0, chunkSize)
		for {
			e, ok := src.Next()
			if !ok {
				if len(buf) > 0 {
					select {
					case chans[0] <- buf:
						produced += int64(len(buf))
					case <-ctx.Done():
					}
				}
				return
			}
			buf = append(buf, e)
			if len(buf) == chunkSize {
				select {
				case chans[0] <- buf:
					produced += chunkSize
				case <-ctx.Done():
					return
				}
				buf = make([]stream.Event, 0, chunkSize)
			}
		}
	}()

	// Operator stages.
	for i, op := range p.ops {
		wg.Add(1)
		go func(i int, op Operator) {
			defer wg.Done()
			defer close(chans[i+1])
			out := make([]stream.Event, 0, chunkSize)
			emit := func(e stream.Event) {
				out = append(out, e)
				if len(out) == chunkSize {
					select {
					case chans[i+1] <- out:
					case <-ctx.Done():
					}
					out = make([]stream.Event, 0, chunkSize)
				}
			}
			for chunk := range chans[i] {
				for _, e := range chunk {
					op.Process(e, emit)
				}
			}
			op.Flush(emit)
			if len(out) > 0 {
				select {
				case chans[i+1] <- out:
				case <-ctx.Done():
				}
			}
		}(i, op)
	}

	// Sink stage.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for chunk := range chans[len(chans)-1] {
			for _, e := range chunk {
				sink.Emit(e)
			}
		}
	}()

	wg.Wait()
	return produced
}

// RunParallel fans the source out over n identical pipeline replicas
// (round-robin) and merges their outputs into sink — task parallelism the
// way Flink parallelizes a stateless operator chain. build must return a
// fresh operator chain per replica; sink must be safe for concurrent use.
func RunParallel(ctx context.Context, n int, src stream.Source, sink stream.Sink, build func(replica int) []Operator) int64 {
	if n < 1 {
		n = 1
	}
	feeds := make([]chan []stream.Event, n)
	for i := range feeds {
		feeds[i] = make(chan []stream.Event, 1)
	}

	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			pl := New(build(i)...)
			pl.Run(ctx, &chunkChanSource{ctx: ctx, ch: feeds[i]}, sink)
		}(i)
	}

	// Feed replicas chunk-at-a-time, round-robin: replica i receives every
	// n-th chunk, keeping per-replica streams time-ordered.
	var produced int64
	bufs := make([][]stream.Event, n)
	for i := range bufs {
		bufs[i] = make([]stream.Event, 0, chunkSize)
	}
	send := func(i int) bool {
		if len(bufs[i]) == 0 {
			return true
		}
		select {
		case feeds[i] <- bufs[i]:
			produced += int64(len(bufs[i]))
			bufs[i] = make([]stream.Event, 0, chunkSize)
			return true
		case <-ctx.Done():
			return false
		}
	}
	i := 0
feed:
	for {
		e, ok := src.Next()
		if !ok {
			break
		}
		r := i % n
		bufs[r] = append(bufs[r], e)
		i++
		if len(bufs[r]) == chunkSize {
			if !send(r) {
				break feed
			}
		}
	}
	for r := range feeds {
		send(r)
		close(feeds[r])
	}
	wg.Wait()
	return produced
}

// chunkChanSource adapts a channel of event chunks to stream.Source.
type chunkChanSource struct {
	ctx context.Context
	ch  <-chan []stream.Event
	buf []stream.Event
	pos int
}

var _ stream.Source = (*chunkChanSource)(nil)

// Next implements stream.Source.
func (s *chunkChanSource) Next() (stream.Event, bool) {
	for s.pos >= len(s.buf) {
		select {
		case chunk, ok := <-s.ch:
			if !ok {
				return stream.Event{}, false
			}
			s.buf = chunk
			s.pos = 0
		case <-s.ctx.Done():
			return stream.Event{}, false
		}
	}
	e := s.buf[s.pos]
	s.pos++
	return e, true
}
