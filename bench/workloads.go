package main

import (
	"time"

	"streamapprox/internal/server"
)

// workload is one frozen benchmark input. Later issues cite these by
// name, so names, shapes and rates change only in a change that is about
// the benchmark itself.
type workload struct {
	name string
	why  string

	// rate is the frozen size of a run in items per second of run length:
	// a run of -seconds s measures N = rate × seconds events, which at the
	// commit that froze the rate takes about that many seconds. For the
	// open-loop workload it is also the offered rate.
	rate float64
	// paced makes the producer an open loop at rate, each event stamped
	// with the wall-clock time it was due; otherwise the producer is a
	// closed loop that may run at most lead batches ahead of the results.
	paced bool
	batch int

	// lib runs the library alone: no broker, no server.
	lib bool
	// brokers is the number of clustered TCP brokers (RF 2, min-ISR 2);
	// 0 means one in-process broker.New() with no wire.
	brokers     int
	partitions  int
	pollBackoff time.Duration

	// queries are registered before the first produce; late ones with
	// From "earliest" once lateAt of the measured events are in.
	queries []server.Spec
	late    []server.Spec
	lateAt  float64
	// swapPairs emits every partition's records pairwise exchanged, so
	// the consumer's time sort has work to do.
	swapPairs bool

	edges  []float64 // histogram edges shared by the workload's histogram queries
	source func(seed uint64) *source
}

// leadBatches is how far a closed-loop producer may run ahead of the
// slowest always-attached query's newest result. It turns "closed loop on
// the produce ack" into a closed loop over the whole pipeline: the
// in-process broker acks an append in microseconds, and without this the
// producer would finish in the first second and the rest of the run
// would measure catch-up from a static log.
const leadBatches = 64

var gaussEdges = []float64{40, 70, 85, 100, 115, 130, 160}
var taxiEdges = []float64{0, 1, 2, 4, 8, 16, 64}

func spec(kind string, window, slide time.Duration, fraction float64, seed uint64, edges []float64) server.Spec {
	sp := server.Spec{Kind: kind, Window: window, Slide: slide, Fraction: fraction, Confidence: 95, Seed: seed}
	if kind == "histogram" {
		sp.HistogramEdges = edges
	}
	return sp
}

// fanoutQueries is the 32-query mix of fanout-mixed: four kinds × two
// window shapes × two fractions, twice over with different sampler
// seeds; the first copy is registered up front, the second late.
func fanoutQueries(late bool) []server.Spec {
	var out []server.Spec
	seed := uint64(1)
	if late {
		seed = 101
	}
	for _, kind := range []string{"sum", "mean", "groupby-mean", "histogram"} {
		for _, ws := range [][2]time.Duration{{5 * time.Second, time.Second}, {10 * time.Second, 5 * time.Second}} {
			for _, f := range []float64{0.1, 0.8} {
				sp := spec(kind, ws[0], ws[1], f, seed, taxiEdges)
				if late {
					sp.From = "earliest"
				}
				out = append(out, sp)
				seed++
			}
		}
	}
	return out
}

// pacedQueries is cluster-paced's query set: sum, mean, groupby-sum and
// histogram over a 1 s window sliding by 250 ms, each four times with a
// different sampler seed. A 20 s run closes only 80 such windows; the
// three extra copies of each kind cost next to nothing at this rate and
// quadruple the windows the accuracy metrics average over.
func pacedQueries() []server.Spec {
	var out []server.Spec
	for copy := uint64(0); copy < 4; copy++ {
		for k, kind := range []string{"sum", "mean", "groupby-sum", "histogram"} {
			out = append(out, spec(kind, time.Second, 250*time.Millisecond, 0.5, 11+10*copy+uint64(k), gaussEdges))
		}
	}
	return out
}

var workloads = []*workload{
	{
		name: "lib-skew",
		why:  "the paper's own experiment, single-threaded: window segmentation, sampling and estimate do all the work, broker and server none",
		rate: 48e6, batch: 4096, lib: true,
		queries: []server.Spec{spec("sum", 10*time.Second, 5*time.Second, 0.1, 1, nil)},
		source:  func(seed uint64) *source { return skewSource(seed, 40) },
	},
	{
		name: "cluster-sat",
		why:  "saturating full pipeline with one tenant: client encode, wire, replicate-ack and fetch dominate, the serving tier does little",
		rate: 700e3, batch: 500, brokers: 3, partitions: 4, pollBackoff: time.Millisecond,
		queries: []server.Spec{spec("sum", 2*time.Second, time.Second, 0.5, 11, nil)},
		source:  func(seed uint64) *source { return uniformSource(seed, 100000, 100*time.Second, 500) },
	},
	{
		name: "cluster-paced",
		why:  "open loop well below capacity: mostly waiting (poll back-off, watermarks, ack round trips), the only workload where latency means something",
		rate: 150e3, paced: true, batch: 500, brokers: 3, partitions: 4, pollBackoff: 10 * time.Millisecond,
		queries: pacedQueries(),
		edges:   gaussEdges,
		source:  func(seed uint64) *source { return uniformSource(seed, 750000, 5*time.Second, 500) },
	},
	{
		name: "fanout-mixed",
		why:  "serving-tier dominated: 32 queries fan out from one topic read, unordered input, both sampler regimes, catch-up reads beside live writes",
		rate: 400e3, batch: 1000, partitions: 4, pollBackoff: 200 * time.Microsecond,
		queries: fanoutQueries(false), late: fanoutQueries(true), lateAt: 0,
		swapPairs: true,
		edges:     taxiEdges,
		source: func(seed uint64) *source {
			src := taxiSource(seed, 200000, 100*time.Second)
			src.evenPartitions(1000, 4)
			return src
		},
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// plan is a run's size in events, every count a whole number of batches.
type plan struct {
	warm, measured, tail int64
}

func (p plan) total() int64 { return p.warm + p.measured + p.tail }

// planFor sizes a run: N = rate × seconds measured events, a tenth of
// that as discarded warm-up, and a tail long enough in event time to
// push every measured window out of the pipeline.
func (w *workload) planFor(src *source, seconds float64) plan {
	b := int64(w.batch)
	roundUp := func(n int64) int64 { return (n + b - 1) / b * b }
	var p plan
	p.measured = roundUp(int64(w.rate * seconds))
	p.warm = roundUp(p.measured / 10)
	var window, slide time.Duration
	for _, q := range append(append([]server.Spec(nil), w.queries...), w.late...) {
		if q.Window > window {
			window = q.Window
		}
		if q.Slide > slide {
			slide = q.Slide
		}
	}
	tailNS := int64(window + 2*slide)
	p.tail = roundUp(src.len()*tailNS/src.span + 1)
	return p
}
