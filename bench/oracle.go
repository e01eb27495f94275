package main

import (
	"fmt"
	"math"
	"sort"
	"time"

	"streamapprox/internal/server"
)

// truth is the exact content of a stretch of the stream: item count and
// value sum overall, per stratum, and per histogram bucket.
type truth struct {
	count int64
	sum   float64
	gcnt  []int64   // per dict id
	gsum  []float64 // per dict id
	hist  []int64   // per bucket [edges[b], edges[b+1])
}

func newTruth(strata, buckets int) truth {
	return truth{gcnt: make([]int64, strata), gsum: make([]float64, strata), hist: make([]int64, buckets)}
}

func (t truth) clone() truth {
	c := t
	c.gcnt = append([]int64(nil), t.gcnt...)
	c.gsum = append([]float64(nil), t.gsum...)
	c.hist = append([]int64(nil), t.hist...)
	return c
}

// addScaled adds k copies of o to t.
func (t *truth) addScaled(o truth, k int64) {
	t.count += k * o.count
	t.sum += float64(k) * o.sum
	for i := range t.gcnt {
		t.gcnt[i] += k * o.gcnt[i]
		t.gsum[i] += float64(k) * o.gsum[i]
	}
	for i := range t.hist {
		t.hist[i] += k * o.hist[i]
	}
}

// oracleBlock is the spacing of stored prefix sums: a lookup reads one
// stored prefix and scans at most this many pool entries, so the oracle
// costs pool/oracleBlock memory instead of one prefix row per event.
const oracleBlock = 256

// oracle answers "what exactly is in window [start, end)" for a source
// in time independent of the window's length: prefix sums over one pool
// cycle, whole cycles added by multiplication. Building it is O(pool),
// each window O(oracleBlock + log pool) — O(N + windows) overall, where
// the scan it replaces was O(windows × N).
type oracle struct {
	src    *source
	ids    map[string]int // dict id per stratum name
	edges  []float64
	blocks []truth // blocks[k] covers pool entries [0, k*oracleBlock)
	cycle  truth   // one whole pool cycle
}

func newOracle(src *source, edges []float64) *oracle {
	o := &oracle{src: src, edges: edges, ids: make(map[string]int, len(src.dict))}
	for id, name := range src.dict {
		o.ids[name] = id
	}
	buckets := 0
	if len(edges) > 1 {
		buckets = len(edges) - 1
	}
	acc := newTruth(len(src.dict), buckets)
	for j := range src.values {
		if j%oracleBlock == 0 {
			o.blocks = append(o.blocks, acc.clone())
		}
		o.accumulate(&acc, j)
	}
	o.cycle = acc
	return o
}

func (o *oracle) accumulate(t *truth, j int) {
	v, id := o.src.values[j], o.src.strata[j]
	t.count++
	t.sum += v
	t.gcnt[id]++
	t.gsum[id] += v
	if b := o.bucketOf(v); b >= 0 {
		t.hist[b]++
	}
}

// bucketOf returns the histogram bucket holding v, -1 when outside the
// edges.
func (o *oracle) bucketOf(v float64) int {
	if len(o.edges) < 2 || v < o.edges[0] || v >= o.edges[len(o.edges)-1] {
		return -1
	}
	return sort.SearchFloat64s(o.edges, math.Nextafter(v, math.Inf(1))) - 1
}

// upTo returns the exact content of stream indices [0, g).
func (o *oracle) upTo(g int64) truth {
	n := o.src.len()
	j := int(g % n)
	t := o.blocks[j/oracleBlock].clone()
	for k := j - j%oracleBlock; k < j; k++ {
		o.accumulate(&t, k)
	}
	t.addScaled(o.cycle, g/n)
	return t
}

// window returns the exact content of event-time range [start, end).
func (o *oracle) window(start, end int64) truth {
	t := o.upTo(o.src.indexAt(end))
	t.addScaled(o.upTo(o.src.indexAt(start)), -1)
	return t
}

// windowScore is one merged window judged against the oracle.
type windowScore struct {
	itemsOK  bool
	relErr   float64 // headline estimate's |est−exact| / max(|exact|, 1)
	checked  int     // estimates compared with their reported bound
	covered  int     // of those, how many had |est−exact| ≤ bound
	exactN   int64
	describe string // set when itemsOK is false
}

// score compares one served window with the truth. The headline
// estimate is the overall value for sum/mean/group-by kinds and the mean
// over buckets for histograms (whose overall value is the exact count);
// every estimate the window carries — overall, each group, each bucket —
// is checked against its own reported bound.
func (o *oracle) score(kind string, w *server.MergedWindow) windowScore {
	t := o.window(w.Start.UnixNano(), w.End.UnixNano())
	sc := windowScore{itemsOK: w.Items == t.count, exactN: t.count}
	if !sc.itemsOK {
		sc.describe = fmt.Sprintf("query %s window [%s, %s) seq %d: items %d, exact %d",
			w.Query, w.Start.Format(time.RFC3339Nano), w.End.Format(time.RFC3339Nano), w.Seq, w.Items, t.count)
	}
	check := func(est, bound, exact float64) float64 {
		diff := math.Abs(est - exact)
		sc.checked++
		// A fully sampled stratum reports bound 0 and an estimate that
		// differs from the oracle only by summation order.
		if diff <= bound+1e-9*math.Max(math.Abs(exact), 1) {
			sc.covered++
		}
		return diff / math.Max(math.Abs(exact), 1)
	}
	meanOf := func(sum float64, n int64) float64 {
		if n == 0 {
			return 0
		}
		return sum / float64(n)
	}
	isMean := kind == "mean" || kind == "groupby-mean"
	switch kind {
	case "histogram":
		var total float64
		for b, be := range w.Buckets {
			if b < len(t.hist) {
				total += check(be.Count.Value, be.Count.Error, float64(t.hist[b]))
			}
		}
		if n := len(w.Buckets); n > 0 {
			sc.relErr = total / float64(n)
		}
	default:
		exact := t.sum
		if isMean {
			exact = meanOf(t.sum, t.count)
		}
		sc.relErr = check(w.Value, w.Error, exact)
		for name, g := range w.Groups {
			id, ok := o.ids[name]
			if !ok {
				continue
			}
			exact := t.gsum[id]
			if isMean {
				exact = meanOf(t.gsum[id], t.gcnt[id])
			}
			check(g.Value, g.Error, exact)
		}
	}
	return sc
}
