// Package core runs the six systems the paper evaluates (§5) on its two
// processing models (§2.2, §4.2), each written directly over the event
// slice and doing only the work it models:
//
//   - the batched engine (spark.go), Spark Streaming's model: the stream
//     is cut into micro-batches, each becomes a dataset of round-robin
//     partitions, and each stage runs one task per partition;
//   - the pipelined engine (flink.go), Flink's model: a feeder hands
//     events in chunks to operator replicas, each a pane.Sampler that
//     samples its records on the fly, one pane per slide segment.
//
// The systems:
//
//   - SparkApprox: StreamApprox on the batched engine — OASRS sampling
//     on-the-fly *before* dataset formation (the ApproxKafkaRDD path).
//   - FlinkApprox: StreamApprox on the pipelined engine — an OASRS
//     sampling operator in each replica (§4.2.2).
//   - SparkSRS: the improved baseline using Spark's simple random
//     sampling applied to each formed micro-batch dataset.
//   - SparkSTS: the improved baseline using Spark's stratified sampling
//     (groupByKey shuffle + per-stratum random sort) per micro-batch.
//   - NativeSpark / NativeFlink: no sampling. NativeFlink is
//     FlinkApprox's replica at fraction 1, which keeps every record.
//
// A fraction of 1 keeps every record on every system, so each serves
// GroundTruth's windows (sampling.FractionBudget).
//
// All systems execute the same sliding-window linear query and produce
// per-window approximate results with error bounds.
package core

import (
	"fmt"
	"time"

	"streamapprox/internal/estimate"
	"streamapprox/internal/pane"
	"streamapprox/internal/query"
	"streamapprox/internal/sampling"
	"streamapprox/internal/stream"
)

// System identifies one of the evaluated systems.
type System int

// The six systems of §5.
const (
	SparkApprox System = iota + 1
	FlinkApprox
	SparkSRS
	SparkSTS
	NativeSpark
	NativeFlink
)

// String returns the system's name as used in the paper's figures.
func (s System) String() string {
	switch s {
	case SparkApprox:
		return "spark-streamapprox"
	case FlinkApprox:
		return "flink-streamapprox"
	case SparkSRS:
		return "spark-srs"
	case SparkSTS:
		return "spark-sts"
	case NativeSpark:
		return "native-spark"
	case NativeFlink:
		return "native-flink"
	default:
		return fmt.Sprintf("System(%d)", int(s))
	}
}

// IsNative reports whether the system processes the full stream.
func (s System) IsNative() bool { return s == NativeSpark || s == NativeFlink }

// IsPipelined reports whether the system runs on the pipelined engine.
func (s System) IsPipelined() bool { return s == FlinkApprox || s == NativeFlink }

// Systems returns all six systems in figure order.
func Systems() []System {
	return []System{FlinkApprox, SparkApprox, SparkSRS, SparkSTS, NativeFlink, NativeSpark}
}

// Config configures one run.
type Config struct {
	// System selects the execution and sampling strategy.
	System System
	// Fraction is the sampling fraction in (0, 1]; 1 keeps every record.
	// Native systems sample at 1 whatever it is.
	Fraction float64
	// Workers is the engine parallelism (partitions per dataset for the
	// batched engine, replica count for the pipelined one). Defaults to 4.
	Workers int
	// BatchInterval is the micro-batch interval for batch engines
	// (default 500ms, the paper's midpoint).
	BatchInterval time.Duration
	// WindowSize and WindowSlide configure the sliding window
	// (defaults: 10s / 5s, the paper's case-study setting); the size is
	// rounded up to a whole number of slides.
	WindowSize  time.Duration
	WindowSlide time.Duration
	// Query is the per-window computation (default: approximate SUM).
	Query query.Query
	// Confidence selects the error-bound level (default 95%).
	Confidence estimate.Confidence
	// Seed makes runs reproducible.
	Seed uint64
}

func (c Config) withDefaults() Config {
	if c.Workers < 1 {
		c.Workers = 4
	}
	if c.BatchInterval <= 0 {
		c.BatchInterval = 500 * time.Millisecond
	}
	if c.WindowSize <= 0 {
		c.WindowSize = 10 * time.Second
	}
	if c.WindowSlide <= 0 {
		c.WindowSlide = 5 * time.Second
	}
	if c.Confidence == 0 {
		c.Confidence = estimate.Conf95
	}
	if c.Query == nil {
		c.Query = query.NewSum(c.Confidence)
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// WindowResult is one window's approximate query output.
type WindowResult = query.Window

// RunStats is the outcome of one run over a dataset.
type RunStats struct {
	System     System
	Results    []WindowResult
	Items      int64         // total items ingested
	Sampled    int64         // total items that reached the query
	Elapsed    time.Duration // processing time for the whole dataset (§6.1 latency)
	Throughput float64       // Items / Elapsed
}

// Run executes the configured system over a fully materialized,
// time-ordered event stream at maximum speed (the saturated-throughput
// methodology of §6.1) and returns per-window results plus run metrics.
func Run(cfg Config, events []stream.Event) (*RunStats, error) {
	cfg = cfg.withDefaults()
	var (
		stats *RunStats
		err   error
	)
	start := time.Now()
	if cfg.System.IsPipelined() {
		stats, err = runPipelined(cfg, events)
	} else {
		stats, err = runBatched(cfg, events)
	}
	if err != nil {
		return nil, err
	}
	stats.System = cfg.System
	stats.Elapsed = time.Since(start)
	stats.Items = int64(len(events))
	if stats.Elapsed > 0 {
		stats.Throughput = float64(stats.Items) / stats.Elapsed.Seconds()
	}
	for _, r := range stats.Results {
		stats.Sampled += int64(r.Sampled)
	}
	return stats, nil
}

// GroundTruth computes the exact per-window results (no sampling) used
// for accuracy-loss measurements. It bypasses the engines entirely: the
// time-ordered events go through one pane.Sampler at fraction 1, so each
// slide segment is one exact pane. Times must lie in the unix-nano range.
func GroundTruth(cfg Config, events []stream.Event) []WindowResult {
	cfg = cfg.withDefaults()
	w := newWindows(cfg)
	cut := func(start int64, s *sampling.Sample, _ int64) {
		if s != nil {
			w.Add(stream.TimeFromNanos(start), cfg.Query.Summarize(s))
		}
	}
	b := stream.BatchOf(events)
	defer b.Release()
	ps := pane.NewSampler(cfg.WindowSlide, 1, cfg.Seed)
	ps.Push(b, 0, b.Len(), cut)
	ps.Close(cut)
	return w.flush()
}

// exactSample wraps raw events as an unweighted (exact) sample, strata
// in the order they first appear.
func exactSample(events []stream.Event) *sampling.Sample {
	s := &sampling.Sample{}
	at := make(map[string]int)
	for _, e := range events {
		i, ok := at[e.Stratum]
		if !ok {
			i = len(s.Strata)
			at[e.Stratum] = i
			s.Strata = append(s.Strata, sampling.StratumSample{Stratum: e.Stratum, Weight: 1})
		}
		s.Strata[i].Values = append(s.Strata[i].Values, e.Value)
		s.Strata[i].Count++
	}
	return s
}

// windows is an engine's query.Windows and the results it has fired.
type windows struct {
	query.Windows
	q   query.Query
	out []WindowResult
}

func newWindows(cfg Config) *windows {
	return &windows{Windows: query.NewWindows(cfg.WindowSize, cfg.WindowSlide), q: cfg.Query}
}

// emit estimates one window from its panes.
func (w *windows) emit(start time.Time, panes []query.Pane) {
	w.out = append(w.out, w.Estimate(w.q, start, panes))
}

// flush fires every remaining window and returns all fired.
func (w *windows) flush() []WindowResult {
	w.Flush(w.emit)
	return w.out
}
