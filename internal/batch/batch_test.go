package batch

import (
	"sync/atomic"
	"testing"
	"time"

	"streamapprox/internal/stream"
)

func newTestPool(t *testing.T, workers int) *Pool {
	t.Helper()
	p := NewPool(workers)
	t.Cleanup(p.Close)
	return p
}

func seqEvents(n int) []stream.Event {
	base := time.Date(2017, 12, 11, 0, 0, 0, 0, time.UTC)
	out := make([]stream.Event, n)
	for i := range out {
		out[i] = stream.Event{
			Stratum: string(rune('a' + i%3)),
			Value:   float64(i),
			Time:    base.Add(time.Duration(i) * time.Millisecond),
		}
	}
	return out
}

func TestPoolRunsAllTasks(t *testing.T) {
	p := newTestPool(t, 4)
	var n atomic.Int64
	p.RunN(100, func(int) { n.Add(1) })
	if n.Load() != 100 {
		t.Errorf("ran %d tasks, want 100", n.Load())
	}
}

func TestPoolSizeClamp(t *testing.T) {
	p := newTestPool(t, 0)
	if p.Size() != 1 {
		t.Errorf("Size = %d, want 1", p.Size())
	}
}

func TestPoolCloseIdempotent(t *testing.T) {
	p := NewPool(2)
	p.Close()
	p.Close() // must not panic
}

func TestPoolStageBarrier(t *testing.T) {
	p := newTestPool(t, 4)
	var stage1 atomic.Int64
	p.RunN(8, func(int) {
		time.Sleep(time.Millisecond)
		stage1.Add(1)
	})
	// Run returns only after all tasks completed.
	if stage1.Load() != 8 {
		t.Errorf("stage barrier violated: %d/8 tasks done at Run return", stage1.Load())
	}
}

func TestDatasetCountAndCollect(t *testing.T) {
	p := newTestPool(t, 4)
	d := NewDataset(p, seqEvents(100))
	if d.Count() != 100 {
		t.Errorf("Count = %d", d.Count())
	}
	if d.NumPartitions() != 4 {
		t.Errorf("NumPartitions = %d", d.NumPartitions())
	}
	if got := len(d.Collect()); got != 100 {
		t.Errorf("Collect len = %d", got)
	}
}

func TestDatasetSum(t *testing.T) {
	p := newTestPool(t, 4)
	if got := NewDataset(p, seqEvents(100)).Sum(); got != 4950 {
		t.Errorf("Sum = %v, want 4950", got)
	}
}

func TestAggregateGeneric(t *testing.T) {
	p := newTestPool(t, 2)
	d := NewDataset(p, seqEvents(10))
	maxVal := Aggregate(d, func() float64 { return -1 },
		func(acc float64, e stream.Event) float64 {
			if e.Value > acc {
				return e.Value
			}
			return acc
		},
		func(a, b float64) float64 {
			if a > b {
				return a
			}
			return b
		})
	if maxVal != 9 {
		t.Errorf("max = %v, want 9", maxVal)
	}
}

func TestForeachPartitionCoversAll(t *testing.T) {
	p := newTestPool(t, 4)
	d := NewDataset(p, seqEvents(50))
	var n atomic.Int64
	d.ForeachPartition(func(_ int, events []stream.Event) {
		n.Add(int64(len(events)))
	})
	if n.Load() != 50 {
		t.Errorf("visited %d events", n.Load())
	}
}

func TestBatcherCutsAtInterval(t *testing.T) {
	b := NewBatcher(10 * time.Millisecond)
	var batches []Batch
	for _, e := range seqEvents(35) { // 1 event/ms
		batches = append(batches, b.Add(e)...)
	}
	batches = append(batches, b.Flush()...)
	if len(batches) != 4 {
		t.Fatalf("got %d batches, want 4", len(batches))
	}
	for i, bt := range batches[:3] {
		if len(bt.Events) != 10 {
			t.Errorf("batch %d has %d events, want 10", i, len(bt.Events))
		}
		if bt.End.Sub(bt.Start) != 10*time.Millisecond {
			t.Errorf("batch %d span %v", i, bt.End.Sub(bt.Start))
		}
	}
	if len(batches[3].Events) != 5 {
		t.Errorf("final partial batch has %d events, want 5", len(batches[3].Events))
	}
}

func TestBatcherEmptyFlush(t *testing.T) {
	b := NewBatcher(time.Second)
	if got := b.Flush(); got != nil {
		t.Errorf("empty flush = %v", got)
	}
}

func TestBatcherHandlesGaps(t *testing.T) {
	b := NewBatcher(10 * time.Millisecond)
	base := time.Date(2017, 12, 11, 0, 0, 0, 0, time.UTC)
	b.Add(stream.Event{Time: base, Value: 1})
	// A gap of one hour must not generate 360000 empty batches.
	fired := b.Add(stream.Event{Time: base.Add(time.Hour), Value: 2})
	if len(fired) > 200 {
		t.Errorf("gap produced %d batches; empty-interval skipping broken", len(fired))
	}
	total := 0
	for _, bt := range fired {
		total += len(bt.Events)
	}
	if total != 1 {
		t.Errorf("events in fired batches = %d, want 1", total)
	}
}

func TestBatcherClampsBadInterval(t *testing.T) {
	b := NewBatcher(0)
	if b.Interval() != time.Millisecond {
		t.Errorf("Interval = %v", b.Interval())
	}
}

func TestSplit(t *testing.T) {
	src := stream.NewSliceSource(seqEvents(100))
	batches := Split(src, 25*time.Millisecond)
	total := 0
	for _, bt := range batches {
		total += len(bt.Events)
	}
	if total != 100 {
		t.Errorf("Split lost events: %d/100", total)
	}
	if len(batches) != 4 {
		t.Errorf("got %d batches, want 4", len(batches))
	}
}
