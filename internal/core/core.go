// Package core wires the substrates into the six systems the paper
// evaluates (§5):
//
//   - SparkApprox: StreamApprox on the batched engine — OASRS sampling
//     on-the-fly *before* dataset formation (the ApproxKafkaRDD path).
//   - FlinkApprox: StreamApprox on the pipelined engine — an OASRS
//     sampling operator in the operator chain (§4.2.2).
//   - SparkSRS: the improved baseline using Spark's simple random
//     sampling applied to each formed micro-batch dataset.
//   - SparkSTS: the improved baseline using Spark's stratified sampling
//     (groupByKey shuffle + per-stratum random sort) per micro-batch.
//   - NativeSpark / NativeFlink: no sampling.
//
// All systems execute the same sliding-window linear query and produce
// per-window approximate results with error bounds.
package core

import (
	"fmt"
	"time"

	"streamapprox/internal/estimate"
	"streamapprox/internal/query"
	"streamapprox/internal/sampling"
	"streamapprox/internal/stream"
	"streamapprox/internal/window"
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
	// Fraction is the sampling fraction in (0, 1]; ignored by native
	// systems.
	Fraction float64
	// Workers is the engine parallelism (pool size for batch engines,
	// replica count for pipelined engines). Defaults to 4.
	Workers int
	// BatchInterval is the micro-batch interval for batch engines
	// (default 500ms, the paper's midpoint).
	BatchInterval time.Duration
	// WindowSize and WindowSlide configure the sliding window
	// (defaults: 10s / 5s, the paper's case-study setting).
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
	if c.Fraction <= 0 || c.Fraction > 1 {
		c.Fraction = 1
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// WindowResult is one window's approximate query output.
type WindowResult struct {
	Window  window.Window
	Result  query.Result
	Items   int64 // items observed in the window (ΣCi)
	Sampled int   // items actually processed by the query (ΣYi)
}

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
// for accuracy-loss measurements. It bypasses the engines entirely.
func GroundTruth(cfg Config, events []stream.Event) []WindowResult {
	cfg = cfg.withDefaults()
	fired := window.Slice(events, cfg.WindowSize, cfg.WindowSlide)
	out := make([]WindowResult, 0, len(fired))
	for _, f := range fired {
		s := exactSample(f.Events)
		out = append(out, WindowResult{
			Window:  f.Window,
			Result:  cfg.Query.Evaluate(s),
			Items:   int64(len(f.Events)),
			Sampled: len(f.Events),
		})
	}
	return out
}

// exactSample wraps raw events as an unweighted (exact) sample.
func exactSample(events []stream.Event) *sampling.Sample {
	groups := stream.PartitionByStratum(events)
	s := &sampling.Sample{Strata: make([]sampling.StratumSample, 0, len(groups))}
	for stratum, items := range groups {
		values := make([]float64, len(items))
		for i, e := range items {
			values[i] = e.Value
		}
		s.Strata = append(s.Strata, sampling.StratumSample{
			Stratum: stratum,
			Values:  values,
			Count:   int64(len(items)),
			Weight:  1,
		})
	}
	return s
}

// mergeWindowSamples appends sub-samples (per micro-batch or per replica
// segment) belonging to the same window into one Sample. Sub-samples are
// independently drawn, so their variances add (Eq. 5); keeping them as
// separate strata entries preserves exactly that.
type windowAccumulator struct {
	assigner *window.Assigner
	pending  map[time.Time]*sampling.Sample
}

func newWindowAccumulator(size, slide time.Duration) *windowAccumulator {
	return &windowAccumulator{
		assigner: window.NewAssigner(size, slide),
		pending:  make(map[time.Time]*sampling.Sample),
	}
}

// add merges a segment sample (covering [segStart, segEnd)) into every
// window the segment belongs to.
func (w *windowAccumulator) add(segStart time.Time, s *sampling.Sample) {
	for _, win := range w.assigner.Assign(segStart) {
		agg, ok := w.pending[win.Start]
		if !ok {
			agg = &sampling.Sample{}
			w.pending[win.Start] = agg
		}
		agg.Strata = append(agg.Strata, s.Strata...)
	}
}

// drain evaluates and removes every window ending at or before cutoff;
// a zero cutoff drains everything.
func (w *windowAccumulator) drain(cutoff time.Time, q query.Query) []WindowResult {
	var out []WindowResult
	for start, s := range w.pending {
		win := window.Window{Start: start, End: start.Add(w.assigner.Size())}
		if !cutoff.IsZero() && win.End.After(cutoff) {
			continue
		}
		out = append(out, WindowResult{
			Window:  win,
			Result:  q.Evaluate(s),
			Items:   s.TotalCount(),
			Sampled: s.SampledCount(),
		})
		delete(w.pending, start)
	}
	sortResults(out)
	return out
}

func sortResults(rs []WindowResult) {
	for i := 1; i < len(rs); i++ {
		for j := i; j > 0 && rs[j].Window.Start.Before(rs[j-1].Window.Start); j-- {
			rs[j], rs[j-1] = rs[j-1], rs[j]
		}
	}
}
