package experiment

import (
	"fmt"
	"sync"
	"time"

	"streamapprox/internal/estimate"
	"streamapprox/internal/metrics"
	"streamapprox/internal/sampling"
	"streamapprox/internal/stream"
	"streamapprox/internal/workload"
	"streamapprox/internal/xrand"
)

// AblationSTSBarrier separates the two costs of Spark-style stratified
// sampling the paper blames for its poor scaling (§4.1, §5.2): the
// groupByKey shuffle+barrier and the per-stratum random sort. It measures
// per-batch sampling time of (a) full STS (shuffle + exact sort), (b) STS
// without the sort (Bernoulli per stratum, shuffle retained) and (c)
// OASRS (no shuffle, no sort).
func AblationSTSBarrier(o Options) (*Table, error) {
	o = o.withDefaults()
	rng := xrand.New(o.Seed)
	events := workload.Generate(rng, 5*time.Second,
		workload.PaperGaussian(o.scaled(8000), o.scaled(8000), o.scaled(8000))...)
	t := &Table{
		ID:      "abl-sync",
		Title:   "STS cost decomposition: shuffle barrier vs sort vs OASRS",
		Columns: []string{"variant", "throughput(items/s)"},
	}
	const trials = 5
	measure := func(name string, sampleFn func() int) {
		sw := metrics.Start()
		for i := 0; i < trials; i++ {
			sw.Add(int64(sampleFn()))
		}
		t.Rows = append(t.Rows, []string{name, fmtThroughput(sw.Throughput())})
	}
	measure("sts-shuffle+sort", func() int {
		s := sampling.NewStratifiedSTS(0.6, o.Workers, true, rng.Split())
		return int(s.SampleBatch(events).TotalCount())
	})
	measure("sts-shuffle-only", func() int {
		s := sampling.NewStratifiedSTS(0.6, o.Workers, false, rng.Split())
		return int(s.SampleBatch(events).TotalCount())
	})
	measure("oasrs-no-sync", func() int {
		d := sampling.NewDistributedOASRS(int(0.6*float64(len(events))), o.Workers, nil, rng.Split())
		addRoundRobin(d, events, o.Workers)
		return int(d.Finish().TotalCount())
	})
	return t, nil
}

// AblationWeighting quantifies the value of the OASRS weights (Eq. 1) on
// a skewed stream: the same reservoir sample evaluated with and without
// the Ci/Yi weighting.
func AblationWeighting(o Options) (*Table, error) {
	o = o.withDefaults()
	rng := xrand.New(o.Seed)
	events := workload.Generate(rng, 15*time.Second, workload.SkewGaussian(o.scaled(6000))...)
	var trueSum float64
	for _, e := range events {
		trueSum += e.Value
	}
	t := &Table{
		ID:      "abl-weights",
		Title:   "Effect of Eq.1 weighting on a skewed stream (sum estimate)",
		Columns: []string{"variant", "accuracy-loss"},
	}
	o2 := sampling.NewOASRS(o.scaled(6000), nil, rng.Split())
	b := stream.BatchOf(events)
	o2.AddBatch(b, 0, b.Len())
	b.Release()
	s := o2.Finish()

	weighted := estimate.Sum(s, estimate.Conf95).Value
	var unweighted float64
	for i := range s.Strata {
		for _, v := range s.Strata[i].Values {
			unweighted += v
		}
	}
	// Naive scale-up: multiply the unweighted sum by the global inverse
	// sampling fraction, ignoring stratum imbalance.
	globalScale := float64(s.TotalCount()) / float64(s.SampledCount())
	t.Rows = append(t.Rows, []string{"with-eq1-weights", fmtLoss(estimate.AccuracyLoss(weighted, trueSum))})
	t.Rows = append(t.Rows, []string{"global-scale-only", fmtLoss(estimate.AccuracyLoss(unweighted*globalScale, trueSum))})
	return t, nil
}

// AblationDistributedOASRS compares sample quality and throughput of the
// single-reservoir OASRS against DistributedOASRS at 1..8 workers.
func AblationDistributedOASRS(o Options) (*Table, error) {
	o = o.withDefaults()
	rng := xrand.New(o.Seed)
	events := workload.Generate(rng, 10*time.Second,
		workload.PaperGaussian(o.scaled(4000), o.scaled(4000), o.scaled(4000))...)
	var trueSum float64
	for _, e := range events {
		trueSum += e.Value
	}
	budget := int(0.4 * float64(len(events)))
	t := &Table{
		ID:      "abl-dist",
		Title:   "DistributedOASRS vs single reservoir: quality and speed",
		Columns: []string{"workers", "throughput(items/s)", "accuracy-loss"},
	}
	for _, w := range []int{1, 2, 4, 8} {
		d := sampling.NewDistributedOASRS(budget, w, nil, rng.Split())
		sw := metrics.Start()
		addRoundRobin(d, events, w)
		sw.Add(int64(len(events)))
		tput := sw.Throughput()
		est := estimate.Sum(d.Finish(), estimate.Conf95).Value
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", w), fmtThroughput(tput),
			fmtLoss(estimate.AccuracyLoss(est, trueSum)),
		})
	}
	return t, nil
}

// addRoundRobin deals events round-robin over w workers of d, each of
// which samples its share on its own goroutine.
func addRoundRobin(d *sampling.DistributedOASRS, events []stream.Event, w int) {
	var wg sync.WaitGroup
	for i, shard := range stream.PartitionRoundRobin(events, w) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			b := stream.BatchOf(shard)
			d.AddBatch(i, b, 0, b.Len())
			b.Release()
		}()
	}
	wg.Wait()
}

// AblationReservoirSkip compares two ways of drawing Algorithm R's
// acceptances at several sampling ratios: a coin flip per item past fill
// (one RNG draw each) against Reservoir's multiplicative skip chain (one
// multiply per rejected item, two draws per accepted one).
func AblationReservoirSkip(o Options) (*Table, error) {
	o = o.withDefaults()
	rng := xrand.New(o.Seed)
	n := o.scaled(2000000)
	values := make([]float64, n)
	for i := range values {
		values[i] = float64(i)
	}
	t := &Table{
		ID:      "abl-skip",
		Title:   "Reservoir: a coin flip per item vs the skip chain",
		Columns: []string{"algorithm", "reservoir-size", "throughput(items/s)"},
	}
	for _, capN := range []int{100, 10000} {
		coin, vals := rng.Split(), make([]float64, 0, capN)
		sw := metrics.Start()
		for i, v := range values {
			if len(vals) < capN {
				vals = append(vals, v)
			} else if j := coin.Uint64n(uint64(i + 1)); j < uint64(capN) {
				vals[j] = v
			}
		}
		sw.Add(int64(n))
		t.Rows = append(t.Rows, []string{"algorithm-r", fmt.Sprintf("%d", capN), fmtThroughput(sw.Throughput())})

		r := sampling.NewReservoir(capN, rng.Split())
		sw = metrics.Start()
		r.AddBatch(values)
		sw.Add(int64(n))
		t.Rows = append(t.Rows, []string{"skip-chain", fmt.Sprintf("%d", capN), fmtThroughput(sw.Throughput())})
	}
	return t, nil
}

// All returns every figure/ablation generator keyed by id.
func All() map[string]func(Options) (*Table, error) {
	return map[string]func(Options) (*Table, error){
		"fig4a":       Fig4a,
		"fig4b":       Fig4b,
		"fig4c":       Fig4c,
		"fig5a":       Fig5a,
		"fig5bc":      Fig5bc,
		"fig6a":       Fig6a,
		"fig6b":       Fig6b,
		"fig6c":       Fig6c,
		"fig7":        Fig7,
		"fig8a":       Fig8a,
		"fig8b":       Fig8b,
		"fig8c":       Fig8c,
		"fig9a":       Fig9a,
		"fig9b":       Fig9b,
		"fig9c":       Fig9c,
		"fig10":       Fig10,
		"abl-sync":    AblationSTSBarrier,
		"abl-weights": AblationWeighting,
		"abl-dist":    AblationDistributedOASRS,
		"abl-skip":    AblationReservoirSkip,
	}
}
