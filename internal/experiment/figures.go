package experiment

import (
	"fmt"
	"time"

	"streamapprox/internal/core"
	"streamapprox/internal/estimate"
	"streamapprox/internal/query"
	"streamapprox/internal/stream"
	"streamapprox/internal/workload"
	"streamapprox/internal/xrand"
)

// gaussianDataset builds the §5.1 synthetic Gaussian workload.
func gaussianDataset(o Options, seconds int, rates [3]int) []stream.Event {
	rng := xrand.New(o.Seed)
	return workload.Generate(rng, time.Duration(seconds)*time.Second,
		workload.PaperGaussian(o.scaled(rates[0]), o.scaled(rates[1]), o.scaled(rates[2]))...)
}

// Fig4a: throughput with varying sampling fractions — all six systems.
func Fig4a(o Options) (*Table, error) {
	o = o.withDefaults()
	events := gaussianDataset(o, 15, [3]int{2000, 2000, 2000})
	t := &Table{
		ID:      "fig4a",
		Title:   "Throughput vs sampling fraction (Gaussian microbenchmark)",
		Columns: []string{"system", "fraction", "throughput(items/s)"},
	}
	for _, frac := range []float64{0.10, 0.20, 0.40, 0.60, 0.80} {
		for _, sys := range samplingSystems() {
			tput, _, _, err := runOnce(core.Config{
				System: sys, Fraction: frac, Workers: o.Workers, Seed: o.Seed,
			}, events, nil)
			if err != nil {
				return nil, err
			}
			t.Rows = append(t.Rows, []string{sys.String(), fmtFraction(frac), fmtThroughput(tput)})
		}
	}
	for _, sys := range []core.System{core.NativeFlink, core.NativeSpark} {
		tput, _, _, err := runOnce(core.Config{
			System: sys, Workers: o.Workers, Seed: o.Seed,
		}, events, nil)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{sys.String(), "native", fmtThroughput(tput)})
	}
	return t, nil
}

// Fig4b: accuracy loss with varying sampling fractions.
func Fig4b(o Options) (*Table, error) {
	o = o.withDefaults()
	events := gaussianDataset(o, 15, [3]int{2000, 2000, 2000})
	cfg := core.Config{Workers: o.Workers, Seed: o.Seed}
	truth := core.GroundTruth(cfg, events)
	t := &Table{
		ID:      "fig4b",
		Title:   "Accuracy loss vs sampling fraction (Gaussian microbenchmark)",
		Columns: []string{"system", "fraction", "accuracy-loss"},
	}
	for _, frac := range []float64{0.10, 0.20, 0.40, 0.60, 0.80, 0.90} {
		for _, sys := range samplingSystems() {
			_, loss, _, err := runOnce(core.Config{
				System: sys, Fraction: frac, Workers: o.Workers, Seed: o.Seed,
			}, events, truth)
			if err != nil {
				return nil, err
			}
			t.Rows = append(t.Rows, []string{sys.String(), fmtFraction(frac), fmtLoss(loss)})
		}
	}
	return t, nil
}

// Fig4c: throughput with different batch intervals (Spark systems only).
func Fig4c(o Options) (*Table, error) {
	o = o.withDefaults()
	events := gaussianDataset(o, 15, [3]int{2000, 2000, 2000})
	t := &Table{
		ID:      "fig4c",
		Title:   "Throughput vs batch interval (fraction 60%)",
		Columns: []string{"system", "batch-interval", "throughput(items/s)"},
	}
	for _, interval := range []time.Duration{250 * time.Millisecond, 500 * time.Millisecond, time.Second} {
		for _, sys := range []core.System{core.SparkApprox, core.SparkSRS, core.SparkSTS} {
			tput, _, _, err := runOnce(core.Config{
				System: sys, Fraction: 0.6, Workers: o.Workers,
				BatchInterval: interval, Seed: o.Seed,
			}, events, nil)
			if err != nil {
				return nil, err
			}
			t.Rows = append(t.Rows, []string{sys.String(), interval.String(), fmtThroughput(tput)})
		}
	}
	return t, nil
}

// Fig5a: accuracy loss with varying sub-stream arrival rates.
func Fig5a(o Options) (*Table, error) {
	o = o.withDefaults()
	t := &Table{
		ID:      "fig5a",
		Title:   "Accuracy loss vs arrival rates A:B:C (fraction 60%)",
		Columns: []string{"system", "rates(A:B:C)", "accuracy-loss"},
	}
	for _, rates := range [][3]int{{8000, 2000, 100}, {3000, 3000, 3000}, {100, 2000, 8000}} {
		events := gaussianDataset(o, 15, rates)
		cfg := core.Config{Workers: o.Workers, Seed: o.Seed}
		truth := core.GroundTruth(cfg, events)
		label := fmt.Sprintf("%d:%d:%d", rates[0], rates[1], rates[2])
		for _, sys := range samplingSystems() {
			_, loss, _, err := runOnce(core.Config{
				System: sys, Fraction: 0.6, Workers: o.Workers, Seed: o.Seed,
			}, events, truth)
			if err != nil {
				return nil, err
			}
			t.Rows = append(t.Rows, []string{sys.String(), label, fmtLoss(loss)})
		}
	}
	return t, nil
}

// Fig5bc: throughput and accuracy with varying window sizes.
func Fig5bc(o Options) (*Table, error) {
	o = o.withDefaults()
	events := gaussianDataset(o, 50, [3]int{1600, 400, 20})
	t := &Table{
		ID:      "fig5bc",
		Title:   "Throughput and accuracy loss vs window size (slide 5s, fraction 60%)",
		Columns: []string{"system", "window", "throughput(items/s)", "accuracy-loss"},
	}
	for _, win := range []time.Duration{10 * time.Second, 20 * time.Second, 30 * time.Second, 40 * time.Second} {
		cfg := core.Config{Workers: o.Workers, Seed: o.Seed, WindowSize: win}
		truth := core.GroundTruth(cfg, events)
		for _, sys := range samplingSystems() {
			tput, loss, _, err := runOnce(core.Config{
				System: sys, Fraction: 0.6, Workers: o.Workers,
				WindowSize: win, Seed: o.Seed,
			}, events, truth)
			if err != nil {
				return nil, err
			}
			t.Rows = append(t.Rows, []string{
				sys.String(), win.String(), fmtThroughput(tput), fmtLoss(loss),
			})
		}
	}
	return t, nil
}

// Fig6a: scalability — throughput with varying worker counts (scale-up:
// cores on one node; scale-out: nodes of 8 cores).
func Fig6a(o Options) (*Table, error) {
	o = o.withDefaults()
	events := gaussianDataset(o, 15, [3]int{2000, 2000, 2000})
	t := &Table{
		ID:      "fig6a",
		Title:   "Scalability: throughput vs cores and nodes (fraction 40%)",
		Columns: []string{"system", "config", "workers", "throughput(items/s)"},
	}
	type point struct {
		label   string
		workers int
	}
	points := []point{
		{"cores=2", 2}, {"cores=4", 4}, {"cores=6", 6}, {"cores=8", 8},
		{"nodes=1", 8}, {"nodes=2", 16}, {"nodes=3", 24}, {"nodes=4", 32},
	}
	for _, pt := range points {
		for _, sys := range samplingSystems() {
			tput, _, _, err := runOnce(core.Config{
				System: sys, Fraction: 0.4, Workers: pt.workers, Seed: o.Seed,
			}, events, nil)
			if err != nil {
				return nil, err
			}
			t.Rows = append(t.Rows, []string{
				sys.String(), pt.label, fmt.Sprintf("%d", pt.workers), fmtThroughput(tput),
			})
		}
	}
	return t, nil
}

// Fig6b: throughput at a fixed accuracy loss (Gaussian skew workload).
func Fig6b(o Options) (*Table, error) {
	o = o.withDefaults()
	rng := xrand.New(o.Seed)
	events := workload.Generate(rng, 15*time.Second, workload.SkewGaussian(o.scaled(6000))...)
	return throughputAtLoss(o, "fig6b",
		"Throughput at fixed accuracy loss (Gaussian skew 80/19/1)",
		events, nil, []float64{0.005, 0.01})
}

// Fig6c: accuracy loss vs sampling fraction under Poisson skew.
func Fig6c(o Options) (*Table, error) {
	o = o.withDefaults()
	rng := xrand.New(o.Seed)
	events := workload.Generate(rng, 15*time.Second, workload.SkewPoisson(o.scaled(6000))...)
	cfg := core.Config{Workers: o.Workers, Seed: o.Seed}
	truth := core.GroundTruth(cfg, events)
	t := &Table{
		ID:      "fig6c",
		Title:   "Accuracy loss vs sampling fraction (Poisson skew 80/19.99/0.01)",
		Columns: []string{"system", "fraction", "accuracy-loss"},
	}
	for _, frac := range []float64{0.10, 0.20, 0.40, 0.60, 0.80, 0.90} {
		for _, sys := range samplingSystems() {
			_, loss, _, err := runOnce(core.Config{
				System: sys, Fraction: frac, Workers: o.Workers, Seed: o.Seed,
			}, events, truth)
			if err != nil {
				return nil, err
			}
			t.Rows = append(t.Rows, []string{sys.String(), fmtFraction(frac), fmtLoss(loss)})
		}
	}
	return t, nil
}

// Fig7: per-slide mean-value time series for SRS, STS and StreamApprox
// against the ground truth (Gaussian skew; w=10s, δ=5s).
func Fig7(o Options) (*Table, error) {
	o = o.withDefaults()
	rng := xrand.New(o.Seed)
	// The paper observes 10 minutes; the quick default covers 60s and
	// Scale extends it.
	seconds := o.scaled(60)
	events := workload.Generate(rng, time.Duration(seconds)*time.Second,
		workload.SkewGaussian(2000)...)
	q := query.NewMean(estimate.Conf95)
	cfg := core.Config{Workers: o.Workers, Seed: o.Seed, Query: q}
	truth := core.GroundTruth(cfg, events)
	truthByStart := make(map[time.Time]float64, len(truth))
	for _, tr := range truth {
		truthByStart[tr.Start] = tr.Result.Overall.Value
	}

	t := &Table{
		ID:      "fig7",
		Title:   "Mean-value time series vs ground truth (w=10s, slide=5s)",
		Columns: []string{"window-start", "ground-truth", "streamapprox", "srs", "sts"},
	}
	series := make(map[time.Time][3]string)
	for i, sys := range []core.System{core.SparkApprox, core.SparkSRS, core.SparkSTS} {
		stats, err := core.Run(core.Config{
			System: sys, Fraction: 0.6, Workers: o.Workers, Seed: o.Seed, Query: q,
		}, events)
		if err != nil {
			return nil, err
		}
		for _, r := range stats.Results {
			vals := series[r.Start]
			vals[i] = fmt.Sprintf("%.2f", r.Result.Overall.Value)
			series[r.Start] = vals
		}
	}
	for _, tr := range truth {
		vals := series[tr.Start]
		t.Rows = append(t.Rows, []string{
			tr.Start.Format("15:04:05"),
			fmt.Sprintf("%.2f", tr.Result.Overall.Value),
			vals[0], vals[1], vals[2],
		})
	}
	return t, nil
}

// throughputAtLoss implements the "fix the accuracy loss, compare
// throughput" methodology (Figs. 6b, 8c, 9c): per system, search the
// sampling fraction until the measured loss is at or under the target,
// then report the throughput at that fraction.
func throughputAtLoss(o Options, id, title string, events []stream.Event, q query.Query, targets []float64) (*Table, error) {
	cfg := core.Config{Workers: o.Workers, Seed: o.Seed, Query: q}
	truth := core.GroundTruth(cfg, events)
	t := &Table{
		ID:      id,
		Title:   title,
		Columns: []string{"system", "target-loss", "fraction", "throughput(items/s)", "measured-loss"},
	}
	for _, target := range targets {
		for _, sys := range samplingSystems() {
			frac, tput, loss, err := searchFraction(o, sys, events, truth, q, target)
			if err != nil {
				return nil, err
			}
			t.Rows = append(t.Rows, []string{
				sys.String(), fmtLoss(target), fmtFraction(frac),
				fmtThroughput(tput), fmtLoss(loss),
			})
		}
	}
	return t, nil
}

// searchFraction finds the smallest fraction from a fixed ladder whose
// measured loss is at or below the target; it returns the highest
// fraction if none qualifies.
func searchFraction(o Options, sys core.System, events []stream.Event, truth []core.WindowResult, q query.Query, target float64) (frac, tput, loss float64, err error) {
	ladder := []float64{0.05, 0.10, 0.20, 0.40, 0.60, 0.80, 0.95}
	for _, f := range ladder {
		tp, l, _, e := runOnce(core.Config{
			System: sys, Fraction: f, Workers: o.Workers, Seed: o.Seed, Query: q,
		}, events, truth)
		if e != nil {
			return 0, 0, 0, e
		}
		frac, tput, loss = f, tp, l
		if l <= target {
			return frac, tput, loss, nil
		}
	}
	return frac, tput, loss, nil
}
