package streamapprox

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"

	"streamapprox/internal/estimate"
	"streamapprox/internal/query"
	"streamapprox/internal/sampling"
	"streamapprox/internal/stream"
	"streamapprox/internal/xrand"
)

// These tests pin the pane path — a window estimated from the summaries
// of the slide segments it covers — to the row path it replaced: a
// window estimated from the concatenated raw samples of those segments.

func batchOf(events []Event) *EventBatch {
	b := NewEventBatch()
	for _, e := range events {
		b.AppendEvent(stream.Event(e))
	}
	return b
}

// rowSession is the reference: the execution model Session had before
// panes, for in-order streams. Every finished segment's raw sample is
// appended to each window covering it; a window that fires evaluates its
// concatenated rows, histogram buckets by one indicator pass each.
type rowSession struct {
	cfg       SessionConfig
	q         query.Query
	edges     []float64
	sampler   *sampling.OASRS
	rng       *xrand.Rand
	segStart  time.Time
	segCount  int
	lastCount int
	pending   map[int64]*sampling.Sample // by window start, unix nanos
	ready     []WindowResult
}

func newRowSession(cfg SessionConfig) *rowSession {
	edges := append([]float64(nil), cfg.HistogramEdges...)
	sort.Float64s(edges)
	return &rowSession{
		cfg:     cfg,
		q:       cfg.Query.internal(cfg.Confidence.internal(), cfg.HistogramEdges),
		edges:   edges,
		rng:     xrand.New(cfg.Seed),
		pending: make(map[int64]*sampling.Sample),
	}
}

func (r *rowSession) startSegment(seg time.Time) {
	r.segStart, r.segCount = seg, 0
	size := int(r.cfg.Fraction * float64(r.lastCount))
	if size < 1 {
		size = 64
	}
	if r.sampler == nil {
		r.sampler = sampling.NewOASRS(size, nil, r.rng)
		return
	}
	r.sampler.SetBudget(size)
}

func (r *rowSession) finishSegment() {
	sample := r.sampler.Finish()
	r.lastCount = r.segCount
	// Every window [start, start+size) with start a multiple of the
	// slide that holds the segment's start.
	for start := r.segStart; start.After(r.segStart.Add(-r.cfg.WindowSize)); start = start.Add(-r.cfg.WindowSlide) {
		agg, ok := r.pending[start.UnixNano()]
		if !ok {
			agg = &sampling.Sample{}
			r.pending[start.UnixNano()] = agg
		}
		agg.Strata = append(agg.Strata, sample.Strata...)
	}
	r.fire(r.segStart.Add(r.cfg.WindowSlide))
}

// fire emits the pending windows ending at or before limit, by start.
func (r *rowSession) fire(limit time.Time) {
	var starts []int64
	for start := range r.pending {
		if !time.Unix(0, start).Add(r.cfg.WindowSize).After(limit) {
			starts = append(starts, start)
		}
	}
	sort.Slice(starts, func(i, j int) bool { return starts[i] < starts[j] })
	for _, startN := range starts {
		agg := r.pending[startN]
		delete(r.pending, startN)
		start := time.Unix(0, startN).UTC()
		res := r.q.Combine([]query.Summary{r.q.Summarize(agg)})
		wr := WindowResult{
			Start: start, End: start.Add(r.cfg.WindowSize), Overall: fromInternalEstimate(res.Overall),
			Items: agg.TotalCount(), Sampled: agg.SampledCount(),
		}
		if len(res.Groups) > 0 {
			wr.Groups = make(map[string]Estimate)
			for k, v := range res.Groups {
				wr.Groups[k] = fromInternalEstimate(v)
			}
		}
		if r.cfg.Query == Histogram {
			for i := 0; i+1 < len(r.edges); i++ {
				lo, hi := r.edges[i], r.edges[i+1]
				count := estimate.LinearFunc(agg, func(v float64) float64 {
					if v >= lo && v < hi {
						return 1
					}
					return 0
				}, r.cfg.Confidence.internal())
				wr.Buckets = append(wr.Buckets, HistogramBucket{Lo: lo, Hi: hi, Count: fromInternalEstimate(count)})
			}
		}
		r.ready = append(r.ready, wr)
	}
}

// pushBatch offers an in-order range in the runs PushBatch cuts it into:
// one AddBatch per stretch of records inside one segment.
func (r *rowSession) pushBatch(b *EventBatch, from, to int) {
	for i := from; i < to; {
		seg := time.Unix(0, b.Times[i]).UTC().Truncate(r.cfg.WindowSlide)
		if r.segStart.IsZero() {
			r.startSegment(seg)
		} else if seg.After(r.segStart) {
			r.finishSegment()
			r.startSegment(seg)
		}
		end := r.segStart.Add(r.cfg.WindowSlide).UnixNano()
		j := i
		for j < to && b.Times[j] < end {
			j++
		}
		r.segCount += j - i
		r.sampler.AddBatch(b, i, j)
		i = j
	}
}

func (r *rowSession) advance(now time.Time) {
	seg := now.Truncate(r.cfg.WindowSlide)
	if !r.segStart.IsZero() && seg.After(r.segStart) {
		r.finishSegment()
		r.startSegment(seg)
	}
	r.fire(seg)
}

func (r *rowSession) poll() []WindowResult {
	out := r.ready
	r.ready = nil
	return out
}

func (r *rowSession) close() []WindowResult {
	if !r.segStart.IsZero() {
		r.finishSegment()
	}
	r.fire(time.Unix(1<<40, 0))
	return r.poll()
}

func sameEstimate(a, b Estimate, tol float64) bool {
	near := func(x, y float64) bool { return x == y || math.Abs(x-y) <= tol*math.Max(math.Abs(x), math.Abs(y)) }
	return near(a.Value, b.Value) && near(a.Bound, b.Bound) && near(a.Variance, b.Variance) && near(a.DF, b.DF) &&
		a.Confidence == b.Confidence
}

// requireSameWindows demands equal windows: every float of the overall
// and group estimates bit-identical, histogram buckets (whose variance
// the pane path takes in closed form) to 1e-12 relative.
func requireSameWindows(t *testing.T, label string, got, want []WindowResult) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d windows, want %d", label, len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if !g.Start.Equal(w.Start) || !g.End.Equal(w.End) {
			t.Fatalf("%s: window %d is [%v, %v), want [%v, %v)", label, i, g.Start, g.End, w.Start, w.End)
		}
		if g.Items != w.Items || g.Sampled != w.Sampled {
			t.Errorf("%s: window %d items/sampled %d/%d, want %d/%d", label, i, g.Items, g.Sampled, w.Items, w.Sampled)
		}
		if !sameEstimate(g.Overall, w.Overall, 0) {
			t.Errorf("%s: window %d overall %+v, want %+v", label, i, g.Overall, w.Overall)
		}
		if !reflect.DeepEqual(g.Groups, w.Groups) {
			t.Errorf("%s: window %d groups %+v, want %+v", label, i, g.Groups, w.Groups)
		}
		if len(g.Buckets) != len(w.Buckets) {
			t.Fatalf("%s: window %d has %d buckets, want %d", label, i, len(g.Buckets), len(w.Buckets))
		}
		for b := range g.Buckets {
			gb, wb := g.Buckets[b], w.Buckets[b]
			if gb.Lo != wb.Lo || gb.Hi != wb.Hi || !sameEstimate(gb.Count, wb.Count, 1e-12) {
				t.Errorf("%s: window %d bucket %d %+v, want %+v", label, i, b, gb, wb)
			}
		}
	}
}

// paneStream is an in-order stream over `segments` one-second slides,
// about 300 events each over four skewed strata. Stratum "d" vanishes
// for segment 7 and returns; event time jumps four slides after segment
// 12. gapAt is the index of the first event after the jump.
func paneStream(seed int64, segments int) (events []Event, gapAt int) {
	rng := rand.New(rand.NewSource(seed))
	strata := []string{"a", "b", "c", "d"}
	share := []float64{0.6, 0.25, 0.1, 0.05}
	at := batchBase
	for seg := 0; seg < segments; seg++ {
		if seg == 13 {
			at = at.Add(4 * time.Second)
			gapAt = len(events)
		}
		n := 250 + rng.Intn(100)
		for i := 0; i < n; i++ {
			k, u := 0, rng.Float64()
			for u > share[k] && k < 3 {
				u -= share[k]
				k++
			}
			if seg == 7 && k == 3 {
				k = 0
			}
			events = append(events, Event{
				Stratum: strata[k],
				Value:   float64(40*(k+1)) + 25*rng.NormFloat64(),
				Time:    at.Add(time.Duration(i) * time.Second / time.Duration(n)),
			})
		}
		at = at.Add(time.Second)
	}
	return events, gapAt
}

var allKinds = map[string]Query{
	"sum": Sum, "count": Count, "mean": Mean, "groupby-sum": GroupBySum,
	"groupby-mean": GroupByMean, "groupby-count": GroupByCount, "histogram": Histogram,
}

func TestPaneWindowsMatchRowWindows(t *testing.T) {
	for name, q := range allKinds {
		for _, ratio := range []int{1, 2, 5} {
			for _, fraction := range []float64{0.1, 0.8} {
				for seed := int64(1); seed <= 2; seed++ {
					cfg := SessionConfig{
						Query: q, WindowSize: time.Duration(ratio) * time.Second, WindowSlide: time.Second,
						Fraction: fraction, Seed: uint64(10 + seed), HistogramEdges: []float64{0, 40, 80, 120, 200},
					}
					label := fmt.Sprintf("%s W/S=%d f=%g seed=%d", name, ratio, fraction, seed)
					events, gapAt := paneStream(seed, 24)
					rng := rand.New(rand.NewSource(seed))
					// Odd seeds punctuate like a served shard: Advance to
					// each batch's newest event, and once into the gap so a
					// segment finishes empty.
					punctuate := seed%2 == 1
					sess, ref := NewSession(cfg), newRowSession(cfg)
					var got, want []WindowResult
					for i, refracted := 0, false; i < len(events); {
						j := min(i+1+rng.Intn(700), len(events))
						if i < gapAt && j > gapAt {
							j = gapAt
						}
						if i == gapAt && punctuate {
							mid := events[gapAt-1].Time.Add(2500 * time.Millisecond)
							sess.Advance(mid)
							ref.advance(mid)
						}
						if !refracted && i > len(events)/2 {
							refracted = true
							sess.ps.SetFraction(0.5)
							ref.cfg.Fraction = 0.5
						}
						b := batchOf(events[i:j])
						if err := sess.PushBatch(b, 0, b.Len()); err != nil {
							t.Fatal(err)
						}
						ref.pushBatch(b, 0, b.Len())
						if punctuate {
							sess.Advance(events[j-1].Time)
							ref.advance(events[j-1].Time)
						}
						b.Release()
						got = append(got, sess.Poll()...)
						want = append(want, ref.poll()...)
						i = j
					}
					got = append(got, sess.Close()...)
					want = append(want, ref.close()...)
					if len(want) < 24 {
						t.Fatalf("%s: reference produced only %d windows", label, len(want))
					}
					requireSameWindows(t, label, got, want)
					if sess.Late() != 0 {
						t.Fatalf("%s: %d late events in an in-order stream", label, sess.Late())
					}
				}
			}
		}
	}
}

// TestSnapshotAtEveryBatchBoundary restores a snapshot taken at each
// batch boundary of a run and requires the continuation to produce the
// windows the uninterrupted run does. On the skewed stream the rare
// stratum leaves most of its share to the others, whose sizes in a
// segment follow the previous segment's per-stratum counts, and every
// third batch ends a few events into a 200-event segment, before the
// second stratum has shown: a snapshot that lost the counts sizes it as
// if it had never overflowed.
func TestSnapshotAtEveryBatchBoundary(t *testing.T) {
	panes, _ := paneStream(3, 20)
	t.Run("pane", func(t *testing.T) { snapshotAtEveryBatchBoundary(t, panes, 211) })
	t.Run("skew", func(t *testing.T) { snapshotAtEveryBatchBoundary(t, goldenSkewStream(), 67) })
}

func snapshotAtEveryBatchBoundary(t *testing.T, events []Event, chunk int) {
	var batches [][]Event
	for i := 0; i < len(events); i += chunk {
		batches = append(batches, events[i:min(i+chunk, len(events))])
	}
	push := func(s *Session, evs []Event) []WindowResult {
		b := batchOf(evs)
		defer b.Release()
		if err := s.PushBatch(b, 0, b.Len()); err != nil {
			t.Fatal(err)
		}
		s.Advance(evs[len(evs)-1].Time)
		return s.Poll()
	}
	for name, q := range goldenKinds {
		cfg := SessionConfig{
			Query: q, WindowSize: 3 * time.Second, WindowSlide: time.Second,
			Fraction: 0.3, Seed: 5, HistogramEdges: []float64{0, 40, 80, 120, 200},
		}
		whole := NewSession(cfg)
		snaps := make([][]byte, len(batches))
		after := make([][]WindowResult, len(batches)+1) // windows completed by batch k; last: by Close
		for k, evs := range batches {
			snap, err := whole.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			snaps[k] = snap
			after[k] = push(whole, evs)
		}
		after[len(batches)] = whole.Close()
		for k := range batches {
			restored, err := RestoreSession(snaps[k])
			if err != nil {
				t.Fatalf("%s: restore at batch %d: %v", name, k, err)
			}
			var got, want []WindowResult
			for j := k; j < len(batches); j++ {
				got = append(got, push(restored, batches[j])...)
				want = append(want, after[j]...)
			}
			got = append(got, restored.Close()...)
			want = append(want, after[len(batches)]...)
			requireSameWindows(t, fmt.Sprintf("%s restored at batch %d", name, k), got, want)
		}
	}
}

func TestRestoreRejectsMalformedPanes(t *testing.T) {
	for name, snap := range map[string]string{
		"bucket counts missing": `{"version":2,"query":7,"windowSizeNs":2000000000,"windowSlideNs":1000000000,"fraction":0.5,
			"histogramEdges":[0,1,2],"seed":1,"panes":[{"start":"2020-01-01T00:00:00Z","summary":{"strata":[{"k":"a","c":3,"n":3,"w":1}],"hits":[1]}}]}`,
		"v1 window shorter than its successor": `{"version":1,"query":1,"windowSizeNs":3000000000,"windowSlideNs":1000000000,"fraction":0.5,"seed":1,
			"pending":{"2020-01-01T00:00:00Z":{"strata":[]},"2020-01-01T00:00:01Z":{"strata":[{"stratum":"a","items":[],"count":1,"weight":1}]}}}`,
	} {
		if _, err := RestoreSession([]byte(snap)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestSteadyStateAllocations: once the reservoirs exist, a segment costs
// a fixed handful of allocations, whatever the sample size — no per-row
// copies, no per-bucket slices. The floor is the segment's summary and
// the moments Combine lines up for the window it completes, plus a
// fraction for the result slice Poll hands over; a histogram adds its hit
// counts and the window's buckets. (A window of at most 32 cells lines
// them up on the stack, so today's counts are 1.3 and 4.3.)
func TestSteadyStateAllocations(t *testing.T) {
	const segments, perRun = 22, 3
	floor := map[string]float64{"sum": 3, "histogram": 7}
	for name, q := range map[string]Query{"sum": Sum, "histogram": Histogram} {
		for _, perSegment := range []int{400, 4000} {
			b := NewEventBatch()
			ids := []int32{b.Intern("a"), b.Intern("b"), b.Intern("c")}
			for i := 0; i < segments*perSegment; i++ {
				b.Append(ids[i%3], float64(i%97), 0)
			}
			s := NewSession(SessionConfig{
				Query: q, WindowSize: 2 * time.Second, WindowSlide: time.Second,
				Fraction: 0.8, HistogramEdges: []float64{0, 25, 50, 75, 100},
			})
			epoch := batchBase.UnixNano()
			run := func() {
				for i := range b.Times {
					b.Times[i] = epoch + int64(i)*int64(time.Second)/int64(perSegment)
				}
				epoch += segments * int64(time.Second)
				if err := s.PushBatch(b, 0, b.Len()); err != nil {
					t.Fatal(err)
				}
				if got := len(s.Poll()); got < segments-1 { // the first run's last segment is still open
					t.Fatalf("%d windows per run, want %d", got, segments)
				}
			}
			run() // warm-up: reservoirs sized, buffers grown
			perSeg := testing.AllocsPerRun(perRun, run) / segments
			if perSeg > floor[name] {
				t.Errorf("%s at %d events/segment: %.1f allocations per segment", name, perSegment, perSeg)
			}
			b.Release()
		}
	}
}
