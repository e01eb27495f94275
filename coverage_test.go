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
	"streamapprox/internal/stream"
	"streamapprox/internal/workload"
	"streamapprox/internal/xrand"
)

// TestBoundCoverage reproduces, in process, the bounds the serving tier
// reports: a seeded taxi-strata stream at 2 000 events per event-second
// (bronx ≈ 10/s, ewr ≈ 2/s), split by the broker's FNV-1a key routing into
// K shards — at K = 4 bronx and ewr each have a partition to themselves —
// one Session per shard and query fed by PushBatch, and each window's
// shard results merged the way the server's merger does, with
// estimate.MergeSums/MergeMeans on the variance and degrees of freedom
// every part carries. Every estimate of every window is checked against
// the exact window: coverage and mean relative bound (Σ bound / Σ |exact|)
// per query × {overall, group, bucket} × K, printed with -v.
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

// coverageRun is one query's shard sessions at one K and the window
// parts not merged yet.
type coverageRun struct {
	q        *coverageQuery
	sessions []*Session
	pending  map[int64][]WindowResult // by window start
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
		r := &coverageRun{q: &queries[qi], pending: map[int64][]WindowResult{}}
		for shard := range coverageShards[ki] {
			r.sessions = append(r.sessions, NewSession(SessionConfig{
				Query: r.q.kind, WindowSize: r.q.size, WindowSlide: r.q.slide, Fraction: r.q.fraction,
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

// push routes one chunk of the stream to the shards and collects the
// windows it completes.
func (w *coverageWorker) push(t *testing.T, events []stream.Event) {
	for _, b := range w.batches {
		b.Reset()
	}
	for _, e := range events {
		w.batches[coverageShard(e.Stratum, len(w.batches))].AppendEvent(e)
	}
	for _, r := range w.runs {
		for shard, s := range r.sessions {
			b := w.batches[shard]
			if err := s.PushBatch(b, 0, b.Len()); err != nil {
				t.Error(err)
				return
			}
			w.collect(r, s.Poll())
		}
	}
}

// close closes every session and merges what is left with the parts
// there are, as the merger does for a window some shard never reports.
func (w *coverageWorker) close() {
	for _, r := range w.runs {
		for _, s := range r.sessions {
			w.collect(r, s.Close())
		}
		starts := make([]int64, 0, len(r.pending))
		for start := range r.pending {
			starts = append(starts, start)
		}
		sort.Slice(starts, func(i, j int) bool { return starts[i] < starts[j] })
		for _, start := range starts {
			w.score(r.q, r.pending[start])
		}
	}
	for _, b := range w.batches {
		b.Release()
	}
}

func (w *coverageWorker) collect(r *coverageRun, wins []WindowResult) {
	for _, wr := range wins {
		start := wr.Start.UnixNano()
		r.pending[start] = append(r.pending[start], wr)
		if parts := r.pending[start]; len(parts) == len(r.sessions) {
			delete(r.pending, start)
			w.score(r.q, parts)
		}
	}
}

// score merges one window's parts and checks every estimate it carries.
func (w *coverageWorker) score(q *coverageQuery, parts []WindowResult) {
	m := mergeCoverageParts(q.mean(), parts)
	exact := newExactWindow()
	origin := workload.Epoch.Unix()
	for s := parts[0].Start.Unix(); s < parts[0].End.Unix(); s++ {
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
	switch q.kind {
	case Histogram:
		for b, est := range m.buckets {
			check(fmt.Sprintf("[%g, %g)", coverageEdges[b], coverageEdges[b+1]), fmt.Sprintf("2%02d", b), est, float64(exact.hist[b]))
		}
	case Sum:
		check("overall", "0", m.overall, exact.sum)
	default:
		check("overall", "0", m.overall, exact.sum/float64(exact.count))
		for g, est := range m.groups {
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

// shardEstimate is a shard's estimate as the merger reads it.
func shardEstimate(e Estimate) estimate.Estimate {
	return estimate.Estimate{Value: e.Value, Variance: e.Variance, DF: e.DF, Bound: e.Bound, Confidence: e.Confidence.internal()}
}

// mergedWindow is one window merged across shards.
type mergedWindow struct {
	overall estimate.Estimate
	groups  map[string]estimate.Estimate
	buckets []estimate.Estimate // bucket b is [coverageEdges[b], coverageEdges[b+1])
}

// mergeCoverageParts merges one window's shard results as the server's
// merger does: means weighted by item counts, totals summed, each group
// over the shards that report it, each bucket over all.
func mergeCoverageParts(mean bool, parts []WindowResult) mergedWindow {
	merge := func(ests []estimate.Estimate, counts []int64) estimate.Estimate {
		if mean {
			return estimate.MergeMeans(ests, counts)
		}
		return estimate.MergeSums(ests)
	}
	m := mergedWindow{groups: map[string]estimate.Estimate{}}
	var ests []estimate.Estimate
	var counts []int64
	for _, p := range parts {
		ests = append(ests, shardEstimate(p.Overall))
		counts = append(counts, p.Items)
	}
	m.overall = merge(ests, counts)
	for _, p := range parts {
		for g := range p.Groups {
			if _, done := m.groups[g]; done {
				continue
			}
			ests, counts = ests[:0], counts[:0]
			for _, q := range parts {
				if e, ok := q.Groups[g]; ok {
					ests = append(ests, shardEstimate(e))
					counts = append(counts, q.GroupItems[g])
				}
			}
			m.groups[g] = merge(ests, counts)
		}
	}
	for b := range parts[0].Buckets {
		ests = ests[:0]
		for _, p := range parts {
			ests = append(ests, shardEstimate(p.Buckets[b].Count))
		}
		m.buckets = append(m.buckets, estimate.MergeSums(ests))
	}
	return m
}
