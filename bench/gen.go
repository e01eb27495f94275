package main

import (
	"fmt"
	"hash/fnv"
	"sort"
	"time"

	"streamapprox/internal/broker"
	"streamapprox/internal/stream"
	inputs "streamapprox/internal/workload"
	"streamapprox/internal/xrand"
)

// source is a workload's endless input stream: a pre-built pool of
// events in event-time order, replayed cycle after cycle with the time
// column shifted by span per cycle. The whole stream is never
// materialised — event i is pool entry i%len at time
// origin + times[i%len] + (i/len)*span.
type source struct {
	dict   []string  // stratum names
	strata []int32   // per-event index into dict
	values []float64 // per-event payload
	times  []int64   // per-event nanoseconds after origin, ascending, all < span
	span   int64     // event-time length of one cycle
	origin int64     // unix nanos of stream time zero
}

func (s *source) len() int64 { return int64(len(s.values)) }

// timeOf returns event i's event time in unix nanos.
func (s *source) timeOf(i int64) int64 {
	n := s.len()
	return s.origin + s.times[i%n] + (i/n)*s.span
}

// indexAt returns how many events of the stream have a time before t —
// the index of the first event at or after t.
func (s *source) indexAt(t int64) int64 {
	rel := t - s.origin
	if rel <= 0 {
		return 0
	}
	cycle, within := rel/s.span, rel%s.span
	j := sort.Search(len(s.times), func(k int) bool { return s.times[k] >= within })
	return cycle*s.len() + int64(j)
}

// fromEvents builds a source from time-ordered events starting at
// inputs.Epoch.
func fromEvents(events []stream.Event, span time.Duration) *source {
	s := &source{span: int64(span), origin: inputs.Epoch.UnixNano()}
	s.appendEvents(events, 0)
	return s
}

// appendEvents adds events whose times are relative to inputs.Epoch,
// shifted by offset.
func (s *source) appendEvents(events []stream.Event, offset time.Duration) {
	ids := make(map[string]int32, len(s.dict))
	for i, name := range s.dict {
		ids[name] = int32(i)
	}
	for _, e := range events {
		id, ok := ids[e.Stratum]
		if !ok {
			id = int32(len(s.dict))
			s.dict = append(s.dict, e.Stratum)
			ids[e.Stratum] = id
		}
		s.strata = append(s.strata, id)
		s.values = append(s.values, e.Value)
		s.times = append(s.times, int64(e.Time.Sub(inputs.Epoch)+offset))
	}
}

// skewSource is the paper's §5.7 Gaussian skew mix (80/19/1 %) at 100k
// items/s of event time, generated one second at a time so the row-form
// intermediate never holds more than 100k events.
func skewSource(seed uint64, seconds int) *source {
	rng := xrand.New(seed)
	s := &source{span: int64(seconds) * int64(time.Second), origin: inputs.Epoch.UnixNano()}
	for sec := 0; sec < seconds; sec++ {
		s.appendEvents(inputs.Generate(rng, time.Second, inputs.SkewGaussian(100000)...),
			time.Duration(sec)*time.Second)
	}
	return s
}

// uniformSource is the bench-e2e baseline shape: 16 strata in round
// robin, Gaussian(100, 15) values, n events over span at an even rate —
// stamped per produce batch: the batch events of one batch share the
// instant the batch was due. A produce call commits its partitions one by
// one, and the serving tier closes windows on a wall-clock idle heuristic
// (ROADMAP open item 3): were the stamps per event, a quarter-second
// stall between two partitions' commits would advance the slow
// partition's watermark past its own in-flight events and drop them as
// late. Equal stamps within the one batch in flight cannot be late, so
// machine noise cannot fail a run; fault behaviour stays with bench-e2e.
func uniformSource(seed uint64, n int, span time.Duration, batch int) *source {
	rng := xrand.New(seed)
	s := &source{span: int64(span), origin: inputs.Epoch.UnixNano()}
	for k := 0; k < 16; k++ {
		s.dict = append(s.dict, fmt.Sprintf("s%02d", k))
	}
	s.strata = make([]int32, n)
	s.values = make([]float64, n)
	s.times = make([]int64, n)
	for i := 0; i < n; i++ {
		s.strata[i] = int32(i % 16)
		s.values[i] = rng.Gaussian(100, 15)
		s.times[i] = int64(i/batch*batch) * int64(span) / int64(n)
	}
	return s
}

// taxiSource is the NYC-taxi stand-in: six borough strata with a strong
// popularity skew, so keyed partitioning loads the partitions unevenly.
func taxiSource(seed uint64, n int, span time.Duration) *source {
	return fromEvents(inputs.TaxiEvents(xrand.New(seed), n, span), span)
}

// evenPartitions relabels at most a few events per batch so that every
// batch-aligned stretch of the pool holds an even number of events for
// each partition — what lets recordGen exchange pairs without ever
// leaving half a pair for the next batch. Partitions with an odd count
// come in pairs (the batch size is even); one event of the first moves to
// the commonest stratum of the second. The pool length must be a
// multiple of batch.
func (s *source) evenPartitions(batch, partitions int) {
	partOf := make([]int, len(s.dict))
	commonest := make([]int32, partitions) // per partition: its most frequent stratum
	counts := make([]int, len(s.dict))
	for _, id := range s.strata {
		counts[id]++
	}
	best := make([]int, partitions)
	for id, name := range s.dict {
		p := partitionOf(name, partitions)
		partOf[id] = p
		if counts[id] > best[p] {
			best[p], commonest[p] = counts[id], int32(id)
		}
	}
	for from := 0; from+batch <= len(s.strata); from += batch {
		per := make([]int, partitions)
		for _, id := range s.strata[from : from+batch] {
			per[partOf[id]]++
		}
		odd := -1
		for p, c := range per {
			if c%2 == 0 {
				continue
			}
			if odd < 0 {
				odd = p
				continue
			}
			for j := from; j < from+batch; j++ {
				if partOf[s.strata[j]] == odd {
					s.strata[j] = commonest[p]
					break
				}
			}
			odd = -1
		}
	}
}

// partitionOf mirrors the broker's keyed routing (FNV-1a of the key
// modulo the partition count).
func partitionOf(key string, parts int) int {
	h := fnv.New32a()
	_, _ = h.Write([]byte(key))
	return int(h.Sum32()) % parts
}

// recordGen cuts a source into produce batches of broker records.
//
// With swap set, every partition's records are emitted with each
// adjacent pair exchanged, so fetched batches are out of event-time
// order and EventBatch.SortByTime has real work. A fetch that split a
// pair would see the second half arrive behind the watermark and drop it
// as late, so pairs must never straddle a fetch boundary: the source
// holds an even number of records per partition in every batch
// (evenPartitions), which keeps every partition's log length — and
// therefore every even-sized fetch — pair-aligned.
type recordGen struct {
	src   *source
	batch int
	next  int64 // first stream index of the next batch
	parts []int // partition per dict id; nil unless swapping
	buf   []broker.Record
	held  [][]broker.Record // per partition scratch (swap only)
}

func newRecordGen(src *source, batch int, swap bool, partitions int) *recordGen {
	g := &recordGen{src: src, batch: batch, buf: make([]broker.Record, 0, batch)}
	if swap {
		g.parts = make([]int, len(src.dict))
		for i, name := range src.dict {
			g.parts[i] = partitionOf(name, partitions)
		}
		g.held = make([][]broker.Record, partitions)
	}
	return g
}

// nextBatch returns the next produce batch; the slice is reused by the
// following call.
func (g *recordGen) nextBatch() []broker.Record {
	s, n := g.src, g.src.len()
	from, to := g.next, g.next+int64(g.batch)
	g.next = to
	out := g.buf[:0]
	for i := from; i < to; i++ {
		j := i % n
		out = append(out, broker.Record{
			Key:   s.dict[s.strata[j]],
			Value: s.values[j],
			Time:  time.Unix(0, s.origin+s.times[j]+(i/n)*s.span).UTC(),
		})
	}
	if g.parts == nil {
		return out
	}
	for p := range g.held {
		g.held[p] = g.held[p][:0]
	}
	for k, r := range out {
		p := g.parts[s.strata[(from+int64(k))%n]]
		g.held[p] = append(g.held[p], r)
	}
	out = out[:0]
	for _, recs := range g.held {
		for k := 0; k+1 < len(recs); k += 2 {
			out = append(out, recs[k+1], recs[k])
		}
		if len(recs)%2 == 1 { // cannot happen on an evenPartitions source
			out = append(out, recs[len(recs)-1])
		}
	}
	return out
}
