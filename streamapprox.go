// Package streamapprox is a stream-analytics library for approximate
// computing, reproducing the system of "StreamApprox: Approximate
// Computing for Stream Analytics" (Quoc et al., Middleware 2017).
//
// StreamApprox executes sliding-window linear queries (sum, count, mean,
// per-stratum group-bys, histograms) over unbounded data streams by
// sampling each window with Online Adaptive Stratified Reservoir
// Sampling (OASRS) and returning every result with a rigorous error
// bound ("output ± error"). The sample size — and thus the
// throughput/accuracy trade-off — is set by a sampling fraction, which a
// session's adaptive feedback loop (§4.2.1) moves toward a target
// relative error when one is set. Strata are the events' sources, as in
// the paper's §2.3: Event.Stratum labels each sub-stream.
//
// Two entry points are provided:
//
//   - Run: one-shot execution of a query over a materialized event
//     stream on a choice of engine (batched/micro-batch à la Spark
//     Streaming, or pipelined à la Flink), including the paper's
//     baseline samplers for comparison.
//   - Session: incremental push-based processing with the adaptive
//     feedback mechanism that re-tunes the sampling fraction when error
//     bounds exceed the target.
package streamapprox

import (
	"fmt"
	"time"

	"streamapprox/internal/estimate"
	"streamapprox/internal/query"
	"streamapprox/internal/stream"
)

// Event is one data item: Stratum identifies its sub-stream (data
// source), Value is the numeric payload, Time is its event time.
type Event struct {
	Stratum string
	Value   float64
	Time    time.Time
}

// toInternal converts events for the engines. A time outside the range
// of unix nanos (years 1678–2262) is an error, as it is to Session.Push.
func toInternal(events []Event) ([]stream.Event, error) {
	out := make([]stream.Event, len(events))
	for i, e := range events {
		if _, ok := stream.UnixNanos(e.Time); !ok {
			return nil, fmt.Errorf("streamapprox: event %d time %v outside the unix-nano range", i, e.Time)
		}
		out[i] = stream.Event(e)
	}
	return out, nil
}

// Engine selects the stream-processing model (§2.2 of the paper).
type Engine int

// Supported engines.
const (
	// Batched cuts the stream into micro-batches processed as
	// data-parallel jobs (the Apache Spark Streaming model).
	Batched Engine = iota + 1
	// Pipelined forwards each item through the operator chain as soon as
	// it is ready (the Apache Flink model).
	Pipelined
)

// Sampler selects the sampling strategy for Run.
type Sampler int

// Supported samplers.
const (
	// OASRS is the paper's contribution: online adaptive stratified
	// reservoir sampling, applied before batch formation.
	OASRS Sampler = iota + 1
	// SimpleRandom is the Spark `sample` baseline: uniform random-sort
	// sampling of each formed batch, blind to strata.
	SimpleRandom
	// Stratified is the Spark `sampleByKeyExact` baseline: a
	// groupByKey shuffle followed by per-stratum random-sort sampling.
	Stratified
	// None disables sampling (native execution).
	None
)

// Confidence is the error-bound confidence level per the 68-95-99.7
// rule.
type Confidence int

// Supported confidence levels.
const (
	Confidence68  Confidence = Confidence(estimate.Conf68)
	Confidence95  Confidence = Confidence(estimate.Conf95)
	Confidence997 Confidence = Confidence(estimate.Conf997)
)

func (c Confidence) internal() estimate.Confidence {
	switch c {
	case Confidence68, Confidence95, Confidence997:
		return estimate.Confidence(c)
	default:
		return estimate.Conf95
	}
}

// Estimate is an approximate value with its error bound: the true value
// lies within Value ± Bound with probability Confidence.
type Estimate struct {
	Value      float64
	Bound      float64
	Confidence Confidence
	// Variance is the estimate's variance, and DF its Welch–Satterthwaite
	// degrees of freedom (0: the normal limit). Bound is √Variance times
	// the Student-t quantile at DF for the level; estimates of disjoint
	// populations merge on these two, never on Bound.
	Variance float64
	DF       float64
}

func fromInternalEstimate(e estimate.Estimate) Estimate {
	return Estimate{Value: e.Value, Bound: e.Bound, Confidence: Confidence(e.Confidence), Variance: e.Variance, DF: e.DF}
}

// Interval returns [lo, hi] of the confidence interval.
func (e Estimate) Interval() (lo, hi float64) { return e.Value - e.Bound, e.Value + e.Bound }

// RelativeError returns Bound/|Value| (0 when Value is 0).
func (e Estimate) RelativeError() float64 {
	if e.Value == 0 {
		return 0
	}
	v := e.Value
	if v < 0 {
		v = -v
	}
	return e.Bound / v
}

// Query selects the per-window aggregate.
type Query int

// Supported queries.
const (
	// Sum estimates the sum of all item values in the window.
	Sum Query = iota + 1
	// Count estimates the number of items in the window.
	Count
	// Mean estimates the mean item value in the window.
	Mean
	// GroupBySum estimates the per-stratum sum (e.g. bytes per
	// protocol).
	GroupBySum
	// GroupByMean estimates the per-stratum mean (e.g. average trip
	// distance per borough).
	GroupByMean
	// GroupByCount estimates the per-stratum item count.
	GroupByCount
	// Histogram estimates per-bucket item counts over the value range;
	// bucket edges come from Config.HistogramEdges /
	// SessionConfig.HistogramEdges.
	Histogram
)

// queryNames are the queries' names in internal/query.
var queryNames = [...]string{Sum: "sum", Count: "count", Mean: "mean",
	GroupBySum: "groupby-sum", GroupByMean: "groupby-mean", GroupByCount: "groupby-count", Histogram: "histogram"}

func (q Query) internal(conf estimate.Confidence, histogramEdges []float64) query.Query {
	if q < 0 || int(q) >= len(queryNames) {
		q = Sum
	}
	return query.Named(queryNames[q], conf, histogramEdges)
}

// HistogramBucket is one bucket of a histogram result: the estimated
// number of items with values in [Lo, Hi).
type HistogramBucket struct {
	Lo, Hi float64
	Count  Estimate
}

// WindowResult is one window's approximate output.
type WindowResult struct {
	// Start and End delimit the window [Start, End).
	Start, End time.Time
	// Overall is the window-wide estimate.
	Overall Estimate
	// Groups holds per-stratum estimates for group-by queries.
	Groups map[string]Estimate
	// Buckets holds per-bucket counts for histogram queries.
	Buckets []HistogramBucket
	// Items is the number of items observed in the window.
	Items int64
	// Sampled is the number of items the query actually processed.
	Sampled int
}

// windowResult converts a window fired from panes — by a Session, an
// engine or Exact — to its public form.
func windowResult(w query.Window) WindowResult {
	wr := WindowResult{Start: w.Start, End: w.End, Overall: fromInternalEstimate(w.Result.Overall),
		Items: w.Items, Sampled: w.Sampled}
	if len(w.Result.Groups) > 0 {
		wr.Groups = make(map[string]Estimate, len(w.Result.Groups))
		for k, v := range w.Result.Groups {
			wr.Groups[k] = fromInternalEstimate(v)
		}
	}
	if len(w.Result.Buckets) > 0 {
		wr.Buckets = make([]HistogramBucket, len(w.Result.Buckets))
		for i, b := range w.Result.Buckets {
			wr.Buckets[i] = HistogramBucket{Lo: b.Lo, Hi: b.Hi, Count: fromInternalEstimate(b.Count)}
		}
	}
	return wr
}
