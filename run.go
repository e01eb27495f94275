package streamapprox

import (
	"fmt"
	"time"

	"streamapprox/internal/core"
)

// Config configures a Run.
type Config struct {
	// Engine selects batched or pipelined execution (default Batched).
	Engine Engine
	// Sampler selects the sampling strategy (default OASRS).
	Sampler Sampler
	// Fraction is the sampling fraction in (0, 1]; ignored when Sampler
	// is None (default 0.6, the paper's standard operating point). At 1
	// every record is kept and Run serves Exact's windows. Run returns an
	// error for a value below 0, above 1 or NaN.
	Fraction float64
	// Query is the per-window aggregate (default Sum).
	Query Query
	// Workers is the engine parallelism (default 4).
	Workers int
	// BatchInterval is the micro-batch interval for the batched engine
	// (default 500ms).
	BatchInterval time.Duration
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
	// Sampled is the total number of items that reached the query.
	Sampled int64
	// Elapsed is the wall-clock processing time for the whole stream.
	Elapsed time.Duration
	// Throughput is Items per second of Elapsed.
	Throughput float64
}

// system maps the public (Engine, Sampler) pair onto one of the six
// evaluated systems.
func (c Config) system() (core.System, error) {
	engine := c.Engine
	if engine == 0 {
		engine = Batched
	}
	sampler := c.Sampler
	if sampler == 0 {
		sampler = OASRS
	}
	switch engine {
	case Batched:
		switch sampler {
		case OASRS:
			return core.SparkApprox, nil
		case SimpleRandom:
			return core.SparkSRS, nil
		case Stratified:
			return core.SparkSTS, nil
		case None:
			return core.NativeSpark, nil
		}
	case Pipelined:
		switch sampler {
		case OASRS:
			return core.FlinkApprox, nil
		case None:
			return core.NativeFlink, nil
		case SimpleRandom, Stratified:
			return 0, fmt.Errorf("streamapprox: sampler %d is only available on the batched engine", sampler)
		}
	}
	return 0, fmt.Errorf("streamapprox: invalid engine/sampler combination (%d, %d)", engine, sampler)
}

func (c Config) coreConfig() (core.Config, error) {
	sys, err := c.system()
	if err != nil {
		return core.Config{}, err
	}
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
		System:        sys,
		Fraction:      fraction,
		Workers:       c.Workers,
		BatchInterval: c.BatchInterval,
		WindowSize:    c.WindowSize,
		WindowSlide:   c.WindowSlide,
		Query:         q.internal(conf, c.HistogramEdges),
		Confidence:    conf,
		Seed:          c.Seed,
	}, nil
}

// Run executes the configured query over a time-ordered event stream at
// full speed and returns the per-window approximate results with error
// bounds. An event time outside the unix-nano range is an error.
func Run(cfg Config, events []Event) (*Report, error) {
	if !(cfg.Fraction >= 0 && cfg.Fraction <= 1) {
		return nil, fmt.Errorf("streamapprox: fraction %v outside (0, 1]", cfg.Fraction)
	}
	ccfg, err := cfg.coreConfig()
	if err != nil {
		return nil, err
	}
	in, err := toInternal(events)
	if err != nil {
		return nil, err
	}
	stats, err := core.Run(ccfg, in)
	if err != nil {
		return nil, err
	}
	return &Report{
		Results:    convertResults(stats.Results),
		Items:      stats.Items,
		Sampled:    stats.Sampled,
		Elapsed:    stats.Elapsed,
		Throughput: stats.Throughput,
	}, nil
}

// Exact computes the ground-truth per-window results without sampling,
// for accuracy evaluation against a Run: a fraction-1 sample of each
// slide segment, the same a Session at fraction 1 serves. An event time
// outside the unix-nano range is an error.
func Exact(cfg Config, events []Event) ([]WindowResult, error) {
	cfg.Sampler = None
	cfg.Engine = Batched
	ccfg, err := cfg.coreConfig()
	if err != nil {
		return nil, err
	}
	in, err := toInternal(events)
	if err != nil {
		return nil, err
	}
	return convertResults(core.GroundTruth(ccfg, in)), nil
}

func convertResults(in []core.WindowResult) []WindowResult {
	out := make([]WindowResult, len(in))
	for i, w := range in {
		out[i] = windowResult(w)
	}
	return out
}
