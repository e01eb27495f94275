package pipeline

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	"streamapprox/internal/stream"
)

func seqEvents(n int) []stream.Event {
	base := time.Date(2017, 12, 11, 0, 0, 0, 0, time.UTC)
	out := make([]stream.Event, n)
	for i := range out {
		out[i] = stream.Event{
			Stratum: "s",
			Value:   float64(i),
			Time:    base.Add(time.Duration(i) * time.Millisecond),
		}
	}
	return out
}

func TestPipelineIdentity(t *testing.T) {
	var sink stream.CollectSink
	n := New().Run(context.Background(), stream.NewSliceSource(seqEvents(10)), &sink)
	if n != 10 || len(sink.Events) != 10 {
		t.Errorf("produced %d, collected %d", n, len(sink.Events))
	}
}

func TestPipelineMapFilterChain(t *testing.T) {
	var sink stream.CollectSink
	p := New(
		MapOp{Fn: func(e stream.Event) stream.Event { e.Value *= 10; return e }},
		FilterOp{Fn: func(e stream.Event) bool { return e.Value >= 50 }},
	)
	p.Run(context.Background(), stream.NewSliceSource(seqEvents(10)), &sink)
	if len(sink.Events) != 5 {
		t.Fatalf("collected %d events, want 5", len(sink.Events))
	}
	for _, e := range sink.Events {
		if e.Value < 50 {
			t.Errorf("filter leaked %v", e.Value)
		}
	}
}

func TestPipelinePreservesOrder(t *testing.T) {
	var sink stream.CollectSink
	New(MapOp{Fn: func(e stream.Event) stream.Event { return e }}).
		Run(context.Background(), stream.NewSliceSource(seqEvents(100)), &sink)
	for i, e := range sink.Events {
		if e.Value != float64(i) {
			t.Fatalf("order violated at %d: %v", i, e.Value)
		}
	}
}

func TestFlatMapOp(t *testing.T) {
	var sink stream.CollectSink
	New(FlatMapOp{Fn: func(e stream.Event, emit func(stream.Event)) {
		emit(e)
		emit(e)
	}}).Run(context.Background(), stream.NewSliceSource(seqEvents(5)), &sink)
	if len(sink.Events) != 10 {
		t.Errorf("flatmap emitted %d, want 10", len(sink.Events))
	}
}

type flushCounter struct {
	flushed     atomic.Int64
	emitOnFlush bool
}

func (f *flushCounter) Process(e stream.Event, emit func(stream.Event)) { emit(e) }
func (f *flushCounter) Flush(emit func(stream.Event)) {
	f.flushed.Add(1)
	if f.emitOnFlush {
		emit(stream.Event{Stratum: "flush", Value: -1})
	}
}

func TestFlushCalledExactlyOnce(t *testing.T) {
	op := &flushCounter{emitOnFlush: true}
	var sink stream.CollectSink
	New(op).Run(context.Background(), stream.NewSliceSource(seqEvents(3)), &sink)
	if op.flushed.Load() != 1 {
		t.Errorf("Flush called %d times", op.flushed.Load())
	}
	// The flush emission must reach the sink.
	last := sink.Events[len(sink.Events)-1]
	if last.Stratum != "flush" {
		t.Errorf("flush emission lost; last event %+v", last)
	}
}

func TestContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	// An endless source; cancellation must unblock Run.
	endless := stream.SourceFunc(func() (stream.Event, bool) {
		return stream.Event{Value: 1}, true
	})
	var sink stream.CollectSink
	done := make(chan struct{})
	go func() {
		defer close(done)
		New(MapOp{Fn: func(e stream.Event) stream.Event { return e }}).
			Run(ctx, endless, &sink)
	}()
	time.Sleep(5 * time.Millisecond)
	cancel()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Run did not return after cancellation")
	}
}

func TestRunParallelProcessesAll(t *testing.T) {
	var count atomic.Int64
	sink := stream.SinkFunc(func(stream.Event) { count.Add(1) })
	n := RunParallel(context.Background(), 4,
		stream.NewSliceSource(seqEvents(1000)), sink,
		func(int) []Operator {
			return []Operator{MapOp{Fn: func(e stream.Event) stream.Event { return e }}}
		})
	if n != 1000 {
		t.Errorf("produced %d", n)
	}
	if count.Load() != 1000 {
		t.Errorf("sink saw %d events, want 1000", count.Load())
	}
}

func TestRunParallelClampsN(t *testing.T) {
	var count atomic.Int64
	sink := stream.SinkFunc(func(stream.Event) { count.Add(1) })
	RunParallel(context.Background(), 0, stream.NewSliceSource(seqEvents(10)), sink,
		func(int) []Operator { return nil })
	if count.Load() != 10 {
		t.Errorf("sink saw %d", count.Load())
	}
}
