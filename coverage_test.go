package streamapprox

import (
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"streamapprox/internal/estimate"
	"streamapprox/internal/query"
	"streamapprox/internal/stream"
	"streamapprox/internal/workload"
	"streamapprox/internal/xrand"
)

// TestBoundCoverage reproduces, in process, the bounds the serving tier
// reports: a seeded taxi-strata stream at 2 000 events per event-second
// (bronx ≈ 10/s, ewr ≈ 2/s), split by the broker's FNV-1a key routing into
// K shards — at K = 4 bronx and ewr each have a partition to themselves —
// one Session per shard and query fed by PushBatch, and each window
// combined the way the server's merger does: the shards hand over their
// panes, and a window is one Combine over every shard's panes of its
// slides. Every estimate of every window is checked against the exact
// window: coverage and mean relative bound (Σ bound / Σ |exact|) per
// query × {overall, group, bucket} × K, printed with -v.
//
// Every cell must cover at least 0.93 of the time, within its own
// sampling error: a cell fails when it falls more than two standard errors
// below 0.93, counting one independent window per window length (a 5 s
// window sliding by 1 s shares four of its five panes with the next). The
// residuals README names (coverageResiduals) hold floors of their own.
func TestBoundCoverage(t *testing.T) {
	rows := coverageTable(t)
	var report strings.Builder
	fmt.Fprintf(&report, "%-26s %-14s %8s %8s %8s %8s\n", "query", "estimate", "cov K=1", "rel K=1", "cov K=4", "rel K=4")
	for _, row := range rows {
		fmt.Fprintf(&report, "%-26s %-14s %8.3f %8.4g %8.3f %8.4g\n", row.query.name, row.family,
			row.k[0].coverage(), row.k[0].relBound(), row.k[1].coverage(), row.k[1].relBound())
	}
	t.Log("\n" + report.String())
	for _, row := range rows {
		for i, c := range row.k {
			cell := fmt.Sprintf("%s %s K=%d", row.query.name, row.family, coverageShards[i])
			if c.checked < 200 {
				t.Errorf("%s: %d estimates checked, want at least 200", cell, c.checked)
			}
			independent := float64(c.checked) * row.query.slide.Seconds() / row.query.size.Seconds()
			floor := 0.93 - 2*math.Sqrt(0.93*0.07/independent)
			if f, ok := coverageResiduals[cell]; ok {
				floor = f
			}
			if c.coverage() < floor {
				t.Errorf("%s: coverage %.3f, want at least %.3f", cell, c.coverage(), floor)
			}
		}
	}
}

// coverageResiduals are the cells README names as not yet honest, each
// with the floor it holds: Wald intervals for a sparse histogram tail,
// degenerate at p̂ = 0 in the cells that dominate the bucket, and the
// skew of a lognormal stratum sampled five items a pane.
var coverageResiduals = map[string]float64{
	"histogram f=0.1 5s/1s [8, 16) K=1":   0.87,
	"histogram f=0.1 10s/5s [8, 16) K=1":  0.87,
	"histogram f=0.8 5s/1s [16, 64) K=1":  0.87,
	"histogram f=0.8 10s/5s [16, 64) K=1": 0.87,
	"histogram f=0.1 5s/1s [16, 64) K=4":  0.87,
	"groupby-mean f=0.1 10s/5s bronx K=4": 0.87,
}

// The stream is the bench's fanout-mixed source, long enough for 400
// windows of the 10 s/5 s shape.
const (
	coverageRate   = 2000 // events per event-second
	coverageChunk  = 10   // event-seconds generated and pushed at a time
	coverageChunks = 204
	coverageSeed   = 1
)

var (
	coverageShards = []int{1, 4}
	coverageEdges  = []float64{0, 1, 2, 4, 8, 16, 64}
)

// coverageQuery is one query of the grid.
type coverageQuery struct {
	name        string
	kind        Query
	fraction    float64
	size, slide time.Duration
}

func (q *coverageQuery) mean() bool { return q.kind == Mean || q.kind == GroupByMean }

func coverageQueries() []coverageQuery {
	names := map[Query]string{Sum: "sum", Mean: "mean", GroupByMean: "groupby-mean", Histogram: "histogram"}
	var out []coverageQuery
	for _, kind := range []Query{Sum, Mean, GroupByMean, Histogram} {
		for _, shape := range [][2]time.Duration{{5 * time.Second, time.Second}, {10 * time.Second, 5 * time.Second}} {
			for _, f := range []float64{0.1, 0.8} {
				out = append(out, coverageQuery{
					name: fmt.Sprintf("%s f=%g %v/%v", names[kind], f, shape[0], shape[1]),
					kind: kind, fraction: f, size: shape[0], slide: shape[1],
				})
			}
		}
	}
	return out
}

// coverageCell accumulates one cell of the table.
type coverageCell struct {
	checked, covered int
	bound, exact     float64 // Σ bound, Σ |exact|
}

func (c *coverageCell) check(est estimate.Estimate, exact float64) {
	c.checked++
	// A fully sampled stratum reports bound 0 and a value that differs
	// from the exact one by summation order only.
	if math.Abs(est.Value-exact) <= est.Bound+1e-9*math.Max(math.Abs(exact), 1) {
		c.covered++
	}
	c.bound += est.Bound
	c.exact += math.Abs(exact)
}

func (c coverageCell) coverage() float64 { return float64(c.covered) / float64(max(c.checked, 1)) }
func (c coverageCell) relBound() float64 {
	return c.bound / math.Max(c.exact, math.SmallestNonzeroFloat64)
}

// coverageRow is one query × estimate row: its cell at each K.
type coverageRow struct {
	query  *coverageQuery
	family string
	rank   string // overall, then groups by name, then buckets by edge
	k      [2]coverageCell
}

// exactWindow is the exact content of a stretch of the stream.
type exactWindow struct {
	count int64
	sum   float64
	gcnt  map[string]int64
	gsum  map[string]float64
	hist  []int64
}

func newExactWindow() exactWindow {
	return exactWindow{gcnt: map[string]int64{}, gsum: map[string]float64{}, hist: make([]int64, len(coverageEdges)-1)}
}

func (w *exactWindow) add(o *exactWindow) {
	w.count += o.count
	w.sum += o.sum
	for g, n := range o.gcnt {
		w.gcnt[g] += n
		w.gsum[g] += o.gsum[g]
	}
	for b, n := range o.hist {
		w.hist[b] += n
	}
}

// coverageRun is one query's shard sessions at one K, the panes they
// handed over that not every shard has passed yet, and the windows their
// panes make.
type coverageRun struct {
	q        *coverageQuery
	query    query.Query
	sessions []*Session
	slides   map[time.Time][]query.Summary // the shards' panes, by start
	windows  query.Windows
}

// coverageWorker runs every query at one K and scores its windows.
type coverageWorker struct {
	ki      int
	runs    []*coverageRun
	batches []*EventBatch // one per shard
	seconds []exactWindow // the stream's exact content per event-second
	rows    map[string]*coverageRow
}

func newCoverageWorker(ki int, queries []coverageQuery, seconds []exactWindow) *coverageWorker {
	w := &coverageWorker{ki: ki, seconds: seconds, rows: map[string]*coverageRow{}}
	for qi := range queries {
		q := &queries[qi]
		r := &coverageRun{q: q, query: q.kind.internal(estimate.Conf95, coverageEdges),
			slides: map[time.Time][]query.Summary{}, windows: query.NewWindows(q.size, q.slide)}
		for shard := range coverageShards[ki] {
			r.sessions = append(r.sessions, NewSession(SessionConfig{
				Query: q.kind, WindowSize: q.size, WindowSlide: q.slide, Fraction: q.fraction,
				Confidence: Confidence95, HistogramEdges: coverageEdges, Seed: uint64(1 + 16*qi + shard),
			}))
		}
		w.runs = append(w.runs, r)
	}
	for range coverageShards[ki] {
		w.batches = append(w.batches, NewEventBatch())
	}
	return w
}

// push routes one chunk of the stream to the shards and scores the
// windows every shard has passed.
func (w *coverageWorker) push(t *testing.T, events []stream.Event) {
	for _, b := range w.batches {
		b.Reset()
	}
	for _, e := range events {
		w.batches[coverageShard(e.Stratum, len(w.batches))].AppendEvent(e)
	}
	for _, r := range w.runs {
		mark := time.Time{}
		for shard, s := range r.sessions {
			b := w.batches[shard]
			if err := s.PushBatch(b, 0, b.Len()); err != nil {
				t.Error(err)
				return
			}
			r.take(s)
			if shard == 0 || s.Watermark().Before(mark) {
				mark = s.Watermark()
			}
		}
		r.complete(func(start time.Time) bool { return !start.Add(r.q.slide).After(mark) })
		r.windows.Fire(mark, w.emit(r))
	}
}

// take files a session's finished panes by start.
func (r *coverageRun) take(s *Session) {
	for _, p := range s.Panes() {
		r.slides[p.Start] = append(r.slides[p.Start], p.Summary)
	}
}

// complete hands the windows every shard's pane of each slide done
// reports finished, oldest first: the server's merger.
func (r *coverageRun) complete(done func(time.Time) bool) {
	var starts []time.Time
	for start := range r.slides {
		if done(start) {
			starts = append(starts, start)
		}
	}
	sort.Slice(starts, func(i, j int) bool { return starts[i].Before(starts[j]) })
	for _, start := range starts {
		for _, sum := range r.slides[start] {
			r.windows.Add(start, sum)
		}
		delete(r.slides, start)
	}
}

// close closes every session and fires every window left.
func (w *coverageWorker) close() {
	for _, r := range w.runs {
		for _, s := range r.sessions {
			s.Close()
			r.take(s)
		}
		r.complete(func(time.Time) bool { return true })
		r.windows.Flush(w.emit(r))
	}
	for _, b := range w.batches {
		b.Release()
	}
}

// emit scores the run's windows as they fire.
func (w *coverageWorker) emit(r *coverageRun) func(time.Time, []query.Pane) {
	return func(start time.Time, panes []query.Pane) {
		w.score(r.q, r.windows.Estimate(r.query, start, panes))
	}
}

// score checks every estimate a window carries.
func (w *coverageWorker) score(q *coverageQuery, win query.Window) {
	exact := newExactWindow()
	origin := workload.Epoch.Unix()
	for s := win.Start.Unix(); s < win.End.Unix(); s++ {
		if i := s - origin; i >= 0 && i < int64(len(w.seconds)) {
			exact.add(&w.seconds[i])
		}
	}
	check := func(family, rank string, est estimate.Estimate, exact float64) {
		key := q.name + " " + family
		row, ok := w.rows[key]
		if !ok {
			row = &coverageRow{query: q, family: family, rank: rank}
			w.rows[key] = row
		}
		row.k[w.ki].check(est, exact)
	}
	res := win.Result
	switch q.kind {
	case Histogram:
		for b, bucket := range res.Buckets {
			check(fmt.Sprintf("[%g, %g)", coverageEdges[b], coverageEdges[b+1]), fmt.Sprintf("2%02d", b), bucket.Count, float64(exact.hist[b]))
		}
	case Sum:
		check("overall", "0", res.Overall, exact.sum)
	default:
		check("overall", "0", res.Overall, exact.sum/float64(exact.count))
		for g, est := range res.Groups {
			check(g, "1"+g, est, exact.gsum[g]/float64(exact.gcnt[g]))
		}
	}
}

func coverageTable(t *testing.T) []coverageRow {
	t.Helper()
	queries := coverageQueries()
	seconds := make([]exactWindow, coverageChunk*coverageChunks)
	for i := range seconds {
		seconds[i] = newExactWindow()
	}
	workers := make([]*coverageWorker, len(coverageShards))
	for ki := range workers {
		workers[ki] = newCoverageWorker(ki, queries, seconds)
	}
	rng := xrand.New(coverageSeed)
	origin := workload.Epoch.Unix()
	span := coverageChunk * time.Second
	for chunk := range coverageChunks {
		events := workload.TaxiEvents(rng, coverageRate*coverageChunk, span)
		for i := range events {
			e := &events[i]
			e.Time = e.Time.Add(time.Duration(chunk) * span)
			sec := &seconds[e.Time.Unix()-origin]
			sec.count++
			sec.sum += e.Value
			sec.gcnt[e.Stratum]++
			sec.gsum[e.Stratum] += e.Value
			if b := sort.SearchFloat64s(coverageEdges, math.Nextafter(e.Value, math.Inf(1))) - 1; b >= 0 && b < len(sec.hist) {
				sec.hist[b]++
			}
		}
		// The K = 1 and K = 4 grids run side by side; a window is scored
		// only once the chunk holding its end is counted above.
		var wg sync.WaitGroup
		for _, w := range workers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				w.push(t, events)
			}()
		}
		wg.Wait()
	}
	rows := map[string]*coverageRow{}
	for ki, w := range workers {
		w.close()
		for key, row := range w.rows {
			if rows[key] == nil {
				rows[key] = row
			} else {
				rows[key].k[ki] = row.k[ki]
			}
		}
	}
	order := map[*coverageQuery]int{}
	for i := range queries {
		order[&queries[i]] = i
	}
	out := make([]coverageRow, 0, len(rows))
	for _, row := range rows {
		out = append(out, *row)
	}
	sort.Slice(out, func(i, j int) bool {
		if qi, qj := order[out[i].query], order[out[j].query]; qi != qj {
			return qi < qj
		}
		return out[i].rank < out[j].rank
	})
	return out
}

// coverageShard routes a key to its shard as the broker does.
func coverageShard(key string, shards int) int {
	h := fnv.New32a()
	h.Write([]byte(key))
	return int(h.Sum32() % uint32(shards))
}
