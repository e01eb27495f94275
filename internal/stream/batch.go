package stream

import (
	"cmp"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// EventBatch is the columnar (struct-of-arrays) form of a record batch:
// the currency of the vectorized serving tier. A batch holds one fetch
// round's records with stratum IDs dictionary-interned per batch, so the
// hot loops downstream (window-run segmentation, per-stratum reservoir
// resolution) compare small integers and walk dense slices instead of
// hashing strings and chasing per-event pointers.
//
// Times are unix nanoseconds with ZeroTimeNanos marking the zero
// time.Time (the same sentinel the wire codec and the storage frames
// use, so decode is a straight copy). Base is the broker offset of the
// first record; offsets within a batch are consecutive, which is what
// lets a skip boundary be applied as a slice bound instead of a
// per-record comparison.
//
// Batches are pooled and reference-counted: the producer takes one from
// GetEventBatch (refs=1), Retains it once per additional consumer it
// hands the batch to, and every holder Releases when done — the last
// Release returns the batch to the pool. All columns are read-only
// while the batch is shared.
type EventBatch struct {
	Strata []int32   // per-record dictionary index into Dict
	Values []float64 // per-record numeric payload
	Times  []int64   // per-record unix nanos (ZeroTimeNanos = zero time)
	Dict   []string  // batch-local stratum dictionary, first-seen order
	Base   int64     // broker offset of record 0; offsets are consecutive

	intern map[string]int32
	refs   atomic.Int32

	// SortByTime's scratch, kept with the pooled batch so an unsorted
	// fetch round allocates nothing once the pool is warm: the index
	// permutation and a spare of each column to gather into.
	perm        []int32
	spareStrata []int32
	spareValues []float64
	spareTimes  []int64
}

// ZeroTimeNanos marks the zero time.Time in a batch's Times column,
// matching the wire codec's sentinel so decoded nanos copy through.
const ZeroTimeNanos = math.MinInt64

// TimeFromNanos converts a Times column entry back to a time.Time.
func TimeFromNanos(n int64) time.Time {
	if n == ZeroTimeNanos {
		return time.Time{}
	}
	return time.Unix(0, n).UTC()
}

// TimeToNanos converts a time to its Times column form.
func TimeToNanos(t time.Time) int64 {
	if t.IsZero() {
		return ZeroTimeNanos
	}
	return t.UnixNano()
}

// UnixNanos returns t in unix nanos, ZeroTimeNanos for the zero time, and
// whether t is either: a time outside the years 1678–2262 is not.
func UnixNanos(t time.Time) (int64, bool) {
	n := TimeToNanos(t)
	return n, t.IsZero() || (n != ZeroTimeNanos && time.Unix(0, n).Equal(t))
}

var batchPool = sync.Pool{New: func() any { return new(EventBatch) }}

// GetEventBatch returns an empty batch from the pool with one
// reference held by the caller.
func GetEventBatch() *EventBatch {
	b := batchPool.Get().(*EventBatch)
	b.Reset()
	b.refs.Store(1)
	return b
}

// Retain adds a reference for one more holder of the batch.
func (b *EventBatch) Retain() { b.refs.Add(1) }

// Release drops one reference, returning the batch to the pool when the
// last holder lets go. The caller must not touch the batch afterwards.
func (b *EventBatch) Release() {
	if b.refs.Add(-1) == 0 {
		batchPool.Put(b)
	}
}

// Reset empties the batch for reuse, keeping column capacity.
func (b *EventBatch) Reset() {
	b.Strata = b.Strata[:0]
	b.Values = b.Values[:0]
	b.Times = b.Times[:0]
	b.Dict = b.Dict[:0]
	b.Base = 0
	clear(b.intern)
}

// Len returns the number of records in the batch.
func (b *EventBatch) Len() int { return len(b.Values) }

// InternBytes returns the dictionary ID for a stratum key given as raw
// bytes, adding it on first sight. The string allocation happens once
// per distinct key per batch; lookups are allocation-free.
func (b *EventBatch) InternBytes(key []byte) int32 {
	if b.intern == nil {
		b.intern = make(map[string]int32, 16)
	}
	if id, ok := b.intern[string(key)]; ok {
		return id
	}
	id := int32(len(b.Dict))
	s := string(key)
	b.Dict = append(b.Dict, s)
	b.intern[s] = id
	return id
}

// Intern returns the dictionary ID for a stratum key, adding it on
// first sight.
func (b *EventBatch) Intern(key string) int32 {
	if b.intern == nil {
		b.intern = make(map[string]int32, 16)
	}
	if id, ok := b.intern[key]; ok {
		return id
	}
	id := int32(len(b.Dict))
	b.Dict = append(b.Dict, key)
	b.intern[key] = id
	return id
}

// Append adds one record given an already-interned stratum ID.
func (b *EventBatch) Append(stratum int32, value float64, nanos int64) {
	b.Strata = append(b.Strata, stratum)
	b.Values = append(b.Values, value)
	b.Times = append(b.Times, nanos)
}

// AppendEvent adds one record in row form — the bridge from the
// decoded-record world into a columnar batch.
func (b *EventBatch) AppendEvent(e Event) {
	b.Append(b.Intern(e.Stratum), e.Value, TimeToNanos(e.Time))
}

// BatchOf returns a pooled batch holding events in row order, with one
// reference held by the caller.
func BatchOf(events []Event) *EventBatch {
	b := GetEventBatch()
	for _, e := range events {
		b.AppendEvent(e)
	}
	return b
}

// EventAt materializes record i in row form.
func (b *EventBatch) EventAt(i int) Event {
	return Event{
		Stratum: b.Dict[b.Strata[i]],
		Value:   b.Values[i],
		Time:    TimeFromNanos(b.Times[i]),
	}
}

// Events materializes the whole batch as a row-form slice.
func (b *EventBatch) Events() []Event {
	out := make([]Event, b.Len())
	for i := range out {
		out[i] = b.EventAt(i)
	}
	return out
}

// MaxTime returns the latest non-zero time in [from, to), or the zero
// time when the range has none.
func (b *EventBatch) MaxTime(from, to int) time.Time {
	max := int64(ZeroTimeNanos)
	for _, n := range b.Times[from:to] {
		if n > max {
			max = n
		}
	}
	return TimeFromNanos(max)
}

// TimeOrdered reports whether the batch's times are non-decreasing —
// the overwhelmingly common case for a single partition's append-ordered
// records, which lets consumers skip a re-sort.
func (b *EventBatch) TimeOrdered() bool {
	for i := 1; i < len(b.Times); i++ {
		if b.Times[i] < b.Times[i-1] {
			return false
		}
	}
	return true
}

// SortByTime stable-sorts the batch's records by time. Only the owner
// of a batch (refs not yet shared) may call it: the sorted columns are
// gathered into the batch's spare columns, which then trade places with
// the unsorted ones.
func (b *EventBatch) SortByTime() {
	if b.TimeOrdered() {
		return
	}
	n := b.Len()
	perm := slices.Grow(b.perm[:0], n)[:n]
	for i := range perm {
		perm[i] = int32(i)
	}
	times := b.Times
	slices.SortStableFunc(perm, func(i, j int32) int { return cmp.Compare(times[i], times[j]) })
	strata := slices.Grow(b.spareStrata[:0], n)[:n]
	values := slices.Grow(b.spareValues[:0], n)[:n]
	sorted := slices.Grow(b.spareTimes[:0], n)[:n]
	for i, p := range perm {
		strata[i] = b.Strata[p]
		values[i] = b.Values[p]
		sorted[i] = times[p]
	}
	b.perm = perm
	b.Strata, b.spareStrata = strata, b.Strata
	b.Values, b.spareValues = values, b.Values
	b.Times, b.spareTimes = sorted, b.Times
}
