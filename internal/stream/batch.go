package stream

import (
	"cmp"
	"math"
	"slices"
	"sync"
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
// Batches are pooled, and each has one owner: the reader that takes it
// from GetEventBatch applies it to every consumer in turn and Releases it
// when all are done, which returns it to the pool. Consumers treat every
// column as read-only and keep nothing of the batch past their call.
type EventBatch struct {
	Strata []int32   // per-record dictionary index into Dict
	Values []float64 // per-record numeric payload
	Times  []int64   // per-record unix nanos (ZeroTimeNanos = zero time)
	Dict   []string  // batch-local stratum dictionary, first-seen order
	Base   int64     // broker offset of record 0; offsets are consecutive

	// intern maps each key the batch has seen, this round or an earlier
	// one, to its string and, when gen is the batch's, its ID: Reset
	// moves gen on rather than clearing, so a pooled batch allocates a
	// key's string once, not once per round.
	intern map[string]interned
	gen    uint32

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

// GetEventBatch returns an empty batch from the pool, owned by the
// caller.
func GetEventBatch() *EventBatch {
	b := batchPool.Get().(*EventBatch)
	b.Reset()
	return b
}

// Release returns the batch to the pool. The caller must not touch the
// batch afterwards.
func (b *EventBatch) Release() { batchPool.Put(b) }

// interned is one key of a batch's intern table.
type interned struct {
	key string
	id  int32  // the key's index in Dict, when gen is the batch's
	gen uint32 // the round that gave the key id
}

// maxInterned bounds the keys a batch keeps across Reset; past it, Reset
// forgets them all.
const maxInterned = 4096

// Reset empties the batch for reuse, keeping column capacity and the
// strings of the keys it has interned.
func (b *EventBatch) Reset() {
	b.Strata = b.Strata[:0]
	b.Values = b.Values[:0]
	b.Times = b.Times[:0]
	b.Dict = b.Dict[:0]
	b.Base = 0
	// At the wrap an entry left from 2³² rounds ago would read as this
	// round's.
	if b.gen++; b.gen == 0 || len(b.intern) > maxInterned {
		clear(b.intern)
	}
}

// Len returns the number of records in the batch.
func (b *EventBatch) Len() int { return len(b.Values) }

// InternBytes returns the dictionary ID for a stratum key given as raw
// bytes, adding it on first sight. The string allocation happens once
// per distinct key while the batch keeps it (see Reset); lookups are
// allocation-free.
func (b *EventBatch) InternBytes(key []byte) int32 {
	if e, ok := b.intern[string(key)]; ok {
		return b.dictID(e)
	}
	return b.dictID(interned{key: string(key), gen: b.gen - 1})
}

// Intern returns the dictionary ID for a stratum key, adding it on
// first sight.
func (b *EventBatch) Intern(key string) int32 {
	if e, ok := b.intern[key]; ok {
		return b.dictID(e)
	}
	return b.dictID(interned{key: key, gen: b.gen - 1})
}

// dictID returns the ID of e's key, adding the key to Dict when this
// round has not seen it.
func (b *EventBatch) dictID(e interned) int32 {
	if e.gen == b.gen {
		return e.id
	}
	if b.intern == nil {
		b.intern = make(map[string]interned, 16)
	}
	e.id, e.gen = int32(len(b.Dict)), b.gen
	b.Dict = append(b.Dict, e.key)
	b.intern[e.key] = e
	return e.id
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

// BatchOf returns a pooled batch holding events in row order, owned by
// the caller.
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
// may call it, before any consumer reads the batch: the sorted columns
// are gathered into the batch's spare columns, which then trade places
// with the unsorted ones.
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
