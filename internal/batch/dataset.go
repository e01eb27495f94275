package batch

import "streamapprox/internal/stream"

// Dataset is an immutable, partitioned collection of events — the RDD
// analogue. Its partitions are never mutated; its actions execute as
// data-parallel stages on the owning pool, one task per partition.
type Dataset struct {
	pool       *Pool
	partitions [][]stream.Event
}

// NewDataset forms a Dataset from a materialized batch, splitting it
// round-robin into as many partitions as the pool has workers. This is
// the "forming RDDs" step whose cost StreamApprox's pre-RDD sampling
// avoids paying for discarded items.
func NewDataset(pool *Pool, events []stream.Event) *Dataset {
	return &Dataset{
		pool:       pool,
		partitions: stream.PartitionRoundRobin(events, pool.Size()),
	}
}

// NumPartitions returns the partition count.
func (d *Dataset) NumPartitions() int { return len(d.partitions) }

// Count returns the total number of events.
func (d *Dataset) Count() int {
	total := 0
	for _, p := range d.partitions {
		total += len(p)
	}
	return total
}

// Partition returns partition i (not a copy; callers must not mutate).
func (d *Dataset) Partition(i int) []stream.Event { return d.partitions[i] }

// Collect gathers all partitions into one slice, in partition order.
func (d *Dataset) Collect() []stream.Event {
	out := make([]stream.Event, 0, d.Count())
	for _, p := range d.partitions {
		out = append(out, p...)
	}
	return out
}

// Aggregate folds every partition with seqOp and merges the per-partition
// results with combOp on the driver.
func Aggregate[T any](d *Dataset, zero func() T, seqOp func(T, stream.Event) T, combOp func(T, T) T) T {
	n := len(d.partitions)
	partials := make([]T, n)
	d.pool.RunN(n, func(i int) {
		acc := zero()
		for _, e := range d.partitions[i] {
			acc = seqOp(acc, e)
		}
		partials[i] = acc
	})
	acc := zero()
	for _, p := range partials {
		acc = combOp(acc, p)
	}
	return acc
}

// Sum returns the sum of all event values — the simplest data-parallel
// job the experiments run.
func (d *Dataset) Sum() float64 {
	return Aggregate(d, func() float64 { return 0 },
		func(acc float64, e stream.Event) float64 { return acc + e.Value },
		func(a, b float64) float64 { return a + b })
}

// ForeachPartition runs fn over each partition in parallel; fn receives
// the partition index and its events. Any shared state inside fn must be
// synchronized by the caller.
func (d *Dataset) ForeachPartition(fn func(i int, events []stream.Event)) {
	d.pool.RunN(len(d.partitions), func(i int) {
		fn(i, d.partitions[i])
	})
}
