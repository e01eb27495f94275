package streamapprox

import (
	"fmt"
	"time"

	"streamapprox/internal/core"
	"streamapprox/internal/stream"
)

// Config configures a Run.
type Config struct {
	// Sampler selects the sampling strategy (default OASRS).
	Sampler Sampler
	// Fraction is the sampling fraction in (0, 1] (default 0.6, the
	// paper's standard operating point). At 1 every record is kept and Run
	// serves Exact's windows. Run returns an error for a value below 0,
	// above 1 or NaN.
	Fraction float64
	// Query is the per-window aggregate (default Sum).
	Query Query
	// WindowSize and WindowSlide configure the sliding window (defaults
	// 10s / 5s; a size that is not a whole number of slides is rounded
	// up to one).
	WindowSize  time.Duration
	WindowSlide time.Duration
	// Confidence is the error-bound level (default Confidence95).
	Confidence Confidence
	// HistogramEdges defines the bucket edges for the Histogram query
	// (ignored otherwise).
	HistogramEdges []float64
	// Seed makes runs reproducible (default 1).
	Seed uint64
}

// Report is the outcome of a Run.
type Report struct {
	// Results holds one entry per completed window, in window order.
	Results []WindowResult
	// Items is the total number of items ingested.
	Items int64
	// Sampled is the total number of items that reached the query, each
	// counted once however many windows cover it.
	Sampled int64
	// Elapsed is the wall-clock processing time for the whole stream.
	Elapsed time.Duration
	// Throughput is Items per second of Elapsed.
	Throughput float64
}

// coreConfig is c for system sys, at Run's defaults.
func (c Config) coreConfig(sys core.System) core.Config {
	fraction := c.Fraction
	if fraction == 0 {
		fraction = 0.6
	}
	conf := c.Confidence.internal()
	q := c.Query
	if q == 0 {
		q = Sum
	}
	return core.Config{
		System:      sys,
		Fraction:    fraction,
		WindowSize:  c.WindowSize,
		WindowSlide: c.WindowSlide,
		Query:       q.internal(conf, c.HistogramEdges),
		Confidence:  conf,
		Seed:        c.Seed,
	}
}

// Run executes the configured query over a time-ordered event stream at
// full speed on the batched engine (micro-batches à la Spark Streaming),
// at its default parallelism and batch interval, and returns the
// per-window approximate results with error bounds. An unknown sampler
// or an event time outside the unix-nano range is an error.
func Run(cfg Config, events []Event) (*Report, error) {
	if !(cfg.Fraction >= 0 && cfg.Fraction <= 1) {
		return nil, fmt.Errorf("streamapprox: fraction %v outside (0, 1]", cfg.Fraction)
	}
	var sys core.System
	switch cfg.Sampler {
	case 0, OASRS:
		sys = core.SparkApprox
	case SimpleRandom:
		sys = core.SparkSRS
	default:
		return nil, fmt.Errorf("streamapprox: unknown sampler %d", cfg.Sampler)
	}
	in, err := toInternal(events)
	if err != nil {
		return nil, err
	}
	stats, err := core.Run(cfg.coreConfig(sys), in)
	if err != nil {
		return nil, err
	}
	results := make([]WindowResult, len(stats.Results))
	for i, w := range stats.Results {
		results[i] = windowResult(w)
	}
	return &Report{
		Results:    results,
		Items:      stats.Items,
		Sampled:    stats.Sampled,
		Elapsed:    stats.Elapsed,
		Throughput: stats.Throughput,
	}, nil
}

// Exact computes the ground-truth per-window results without sampling,
// for accuracy evaluation against a Run: the windows a Session at
// fraction 1, which keeps every event, serves. Sampler and Fraction are
// ignored. An event time outside the unix-nano range is an error.
func Exact(cfg Config, events []Event) ([]WindowResult, error) {
	in, err := toInternal(events)
	if err != nil {
		return nil, err
	}
	s := NewSession(SessionConfig{Query: cfg.Query, WindowSize: cfg.WindowSize, WindowSlide: cfg.WindowSlide,
		Fraction: 1, Confidence: cfg.Confidence, HistogramEdges: cfg.HistogramEdges, Seed: cfg.Seed})
	b := stream.BatchOf(in)
	defer b.Release()
	if err := s.PushBatch(b, 0, b.Len()); err != nil {
		return nil, err
	}
	return s.Close(), nil
}
