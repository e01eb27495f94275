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
	Start   time.Time // the window is [Start, End)
	End     time.Time
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
// for accuracy-loss measurements. It bypasses the engines entirely: each
// slide segment of the time-ordered events is one exact pane.
func GroundTruth(cfg Config, events []stream.Event) []WindowResult {
	cfg = cfg.withDefaults()
	w := newWindows(cfg)
	for i := 0; i < len(events); {
		seg := events[i].Time.Truncate(cfg.WindowSlide)
		j := i + 1
		for j < len(events) && events[j].Time.Truncate(cfg.WindowSlide).Equal(seg) {
			j++
		}
		w.Add(seg, cfg.Query.Summarize(exactSample(events[i:j])))
		i = j
	}
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
	r := WindowResult{Start: start, End: start.Add(w.Size())}
	sums := make([]query.Summary, len(panes))
	for i := range panes {
		sums[i] = panes[i].Summary
		r.Items += panes[i].Summary.TotalCount()
		r.Sampled += panes[i].Summary.SampledCount()
	}
	r.Result = w.q.Combine(sums)
	w.out = append(w.out, r)
}

// flush fires every remaining window and returns all fired.
func (w *windows) flush() []WindowResult {
	w.Flush(w.emit)
	return w.out
}
