// Package experiment regenerates every figure of the paper's evaluation
// (§5 microbenchmarks, §6 case studies) plus four ablations (abl-sync,
// abl-weights, abl-dist, abl-skip). Each figure function returns a Table
// whose rows correspond to the points of the published plot; cmd/saprox
// prints them and bench_test.go wraps them in testing.B benchmarks.
//
// Absolute numbers differ from the paper (different hardware, substrate
// simulators instead of real Spark/Flink clusters); this package's tests
// pin the *shape* — orderings, ratios, crossovers — each figure keeps.
package experiment

import (
	"encoding/csv"
	"fmt"
	"strings"
	"time"

	"streamapprox/internal/core"
	"streamapprox/internal/estimate"
	"streamapprox/internal/stream"
)

// Table is one regenerated figure: a titled grid of result rows.
type Table struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string
}

// CSV renders the table as RFC-4180 CSV with a header row, for piping
// into plotting tools.
func (t *Table) CSV() string {
	var b strings.Builder
	w := csv.NewWriter(&b)
	_ = w.Write(t.Columns)
	for _, row := range t.Rows {
		_ = w.Write(row)
	}
	w.Flush()
	return b.String()
}

// Format renders the table as aligned text.
func (t *Table) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

// Options scales and seeds an experiment run.
type Options struct {
	// Scale multiplies dataset sizes; 1.0 is the quick default used by
	// the benchmarks, larger values approach the paper's runs.
	Scale float64
	// Seed drives all generators and samplers.
	Seed uint64
	// Workers is the engine parallelism (default 4).
	Workers int
}

func (o Options) withDefaults() Options {
	if o.Scale <= 0 {
		o.Scale = 1
	}
	if o.Seed == 0 {
		o.Seed = 42
	}
	if o.Workers < 1 {
		o.Workers = 4
	}
	return o
}

// scaled returns n scaled by the options multiplier, min 1.
func (o Options) scaled(n int) int {
	v := int(float64(n) * o.Scale)
	if v < 1 {
		v = 1
	}
	return v
}

// meanAccuracyLoss measures a run's accuracy as the mean over windows of
// the relative error of the overall estimate versus ground truth; for
// group-by queries it averages over groups as well (the paper reports a
// single accuracy-loss number per configuration).
func meanAccuracyLoss(results, truth []core.WindowResult) float64 {
	byStart := make(map[time.Time]core.WindowResult, len(truth))
	for _, tr := range truth {
		byStart[tr.Start] = tr
	}
	var sum float64
	var n int
	for _, r := range results {
		tr, ok := byStart[r.Start]
		if !ok {
			continue
		}
		if len(r.Result.Groups) > 0 {
			for g, est := range r.Result.Groups {
				want, ok := tr.Result.Groups[g]
				if !ok || want.Value == 0 {
					continue
				}
				sum += estimate.AccuracyLoss(est.Value, want.Value)
				n++
			}
			continue
		}
		if tr.Result.Overall.Value == 0 {
			continue
		}
		sum += estimate.AccuracyLoss(r.Result.Overall.Value, tr.Result.Overall.Value)
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// runOnce executes one configuration and returns (throughput items/s,
// mean accuracy loss, elapsed).
func runOnce(cfg core.Config, events []stream.Event, truth []core.WindowResult) (float64, float64, time.Duration, error) {
	stats, err := core.Run(cfg, events)
	if err != nil {
		return 0, 0, 0, err
	}
	loss := meanAccuracyLoss(stats.Results, truth)
	return stats.Throughput, loss, stats.Elapsed, nil
}

func fmtThroughput(v float64) string {
	return fmt.Sprintf("%.0f", v)
}

func fmtLoss(v float64) string {
	return fmt.Sprintf("%.4f%%", v*100)
}

func fmtFraction(f float64) string {
	return fmt.Sprintf("%d%%", int(f*100+0.5))
}

// samplingSystems are the four systems that sample.
func samplingSystems() []core.System {
	return []core.System{core.FlinkApprox, core.SparkApprox, core.SparkSRS, core.SparkSTS}
}
