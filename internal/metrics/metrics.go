// Package metrics implements the measurement methodology of §6.1:
// throughput (items processed per second of processing time), latency
// (total time to process a dataset), and accuracy loss
// (|approx−exact|/exact), plus small summary-statistics helpers used by
// the experiment harness.
package metrics

import (
	"math"
	"sort"
	"time"
)

// Throughput converts an item count and elapsed wall time into
// items/second. It returns 0 for non-positive elapsed time.
func Throughput(items int64, elapsed time.Duration) float64 {
	if elapsed <= 0 {
		return 0
	}
	return float64(items) / elapsed.Seconds()
}

// Stopwatch measures one run's processing time and item count.
type Stopwatch struct {
	start time.Time
	items int64
}

// Start returns a running stopwatch.
func Start() *Stopwatch {
	return &Stopwatch{start: time.Now()}
}

// Add counts processed items.
func (s *Stopwatch) Add(n int64) { s.items += n }

// Items returns the counted items.
func (s *Stopwatch) Items() int64 { return s.items }

// Elapsed returns time since Start.
func (s *Stopwatch) Elapsed() time.Duration { return time.Since(s.start) }

// Throughput returns counted items over elapsed time.
func (s *Stopwatch) Throughput() float64 { return Throughput(s.items, s.Elapsed()) }

// Series summarizes a slice of float64 measurements.
type Series struct {
	Count  int
	Mean   float64
	Stddev float64
	Min    float64
	Max    float64
	P50    float64
	P95    float64
}

// Summarize computes summary statistics; it returns a zero Series for
// empty input.
func Summarize(vals []float64) Series {
	if len(vals) == 0 {
		return Series{}
	}
	sorted := make([]float64, len(vals))
	copy(sorted, vals)
	sort.Float64s(sorted)
	var sum float64
	for _, v := range sorted {
		sum += v
	}
	mean := sum / float64(len(sorted))
	var ss float64
	for _, v := range sorted {
		d := v - mean
		ss += d * d
	}
	sd := 0.0
	if len(sorted) > 1 {
		sd = math.Sqrt(ss / float64(len(sorted)-1))
	}
	return Series{
		Count:  len(sorted),
		Mean:   mean,
		Stddev: sd,
		Min:    sorted[0],
		Max:    sorted[len(sorted)-1],
		P50:    percentile(sorted, 0.50),
		P95:    percentile(sorted, 0.95),
	}
}

// percentile takes the nearest-rank percentile of a sorted slice.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(math.Ceil(p*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}
