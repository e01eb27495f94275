package core

import (
	"slices"
	"sync"
	"time"

	"streamapprox/internal/sampling"
	"streamapprox/internal/stream"
	"streamapprox/internal/xrand"
)

// runBatched executes the micro-batch (Spark Streaming–like) systems.
//
// Per micro-batch, the four batch systems differ exactly where the paper
// says they do (§4.2.1, §5.2):
//
//	SparkApprox: events -> OASRS (pre-dataset, on the fly) -> small
//	             dataset of survivors -> job
//	SparkSRS:    events -> full dataset -> per-partition random-sort
//	             SRS on the dataset -> job
//	SparkSTS:    events -> full dataset -> groupByKey shuffle + barrier +
//	             per-stratum random sort -> job
//	NativeSpark: events -> full dataset -> job over everything
//
// A dataset is the batch copied into Workers round-robin partitions (the
// RDD analogue); each stage over it runs one task per partition.
func runBatched(cfg Config, events []stream.Event) (*RunStats, error) {
	rng := xrand.New(cfg.Seed)
	w := newWindows(cfg)

	// The OASRS sampler persists across batches so its per-stratum sizing
	// adapts from one interval to the next (Algorithm 3's Update(S)).
	var oasrs *sampling.DistributedOASRS
	if cfg.System == SparkApprox {
		oasrs = sampling.NewDistributedOASRS(1, cfg.Workers, nil, rng.Split())
	}

	for _, b := range cutBatches(events, cfg.BatchInterval) {
		var s *sampling.Sample
		switch cfg.System {
		case SparkApprox:
			s = sampleApproxPreDataset(cfg, oasrs, b.events)
		case SparkSRS:
			s = sampleSRSOnDataset(cfg, rng, b.events)
		case SparkSTS:
			s = sampleSTSOnDataset(cfg, rng, b.events)
		default: // NativeSpark
			s = nativeDatasetSample(cfg, b.events)
		}
		// Each micro-batch is one pane of the slide segment it starts in;
		// the windows it completes fire at once.
		w.Add(b.start.Truncate(cfg.WindowSlide), cfg.Query.Summarize(s))
		w.Fire(b.start, w.emit)
	}
	return &RunStats{Results: w.flush()}, nil
}

// microBatch is the events whose times fall in one batch interval.
type microBatch struct {
	start  time.Time
	events []stream.Event
}

// cutBatches cuts time-ordered events into micro-batches at a fixed batch
// interval — the batch generator in Figure 3. It is event-time driven:
// a batch closes at the first event at or past its end, which keeps runs
// deterministic at full replay speed (§6.1). Only an interval that holds
// events cuts a batch, so a gap in event time adds no pane.
func cutBatches(events []stream.Event, interval time.Duration) []microBatch {
	var out []microBatch
	for i := 0; i < len(events); {
		start := events[i].Time.Truncate(interval)
		end := start.Add(interval)
		j := i + 1
		for j < len(events) && events[j].Time.Before(end) {
			j++
		}
		out = append(out, microBatch{start: start, events: events[i:j]})
		i = j
	}
	return out
}

// parallel runs fn(i) for every i in [0, n) concurrently and returns when
// all have — one stage with its barrier.
func parallel(n int, fn func(i int)) {
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func() {
			defer wg.Done()
			fn(i)
		}()
	}
	wg.Wait()
}

// sampleApproxPreDataset is the ApproxKafkaRDD path: the batch's items
// stream through a distributed OASRS sampler with no synchronization, and
// only the surviving sample is materialized into a dataset for the
// data-parallel job. The job's input is |sample| items instead of
// |batch| items — the cost the figures measure.
func sampleApproxPreDataset(cfg Config, d *sampling.DistributedOASRS, events []stream.Event) *sampling.Sample {
	d.SetBudget(sampling.FractionBudget(cfg.Fraction, len(events)))
	// Workers consume disjoint round-robin shards of the incoming batch,
	// each feeding its own lock-free local reservoir set.
	shards := stream.PartitionRoundRobin(events, cfg.Workers)
	parallel(len(shards), func(i int) {
		b := stream.BatchOf(shards[i])
		d.AddBatch(i, b, 0, b.Len())
		b.Release()
	})
	s := d.Finish()
	// Materialize only the sampled items into the engine dataset and run
	// the data-parallel job over the survivors; discarded items never pay
	// the per-record job cost.
	_ = runJob(stream.PartitionRoundRobin(sampledEvents(s), cfg.Workers))
	return s
}

// sampleSRSOnDataset forms the full dataset first (the cost StreamApprox
// avoids) and then runs Spark's `sample` on it: per-partition random-sort
// selection at the configured fraction, merged into one uniform sample.
func sampleSRSOnDataset(cfg Config, rng *xrand.Rand, events []stream.Event) *sampling.Sample {
	parts := stream.PartitionRoundRobin(events, cfg.Workers)
	rngs := make([]*xrand.Rand, len(parts))
	for i := range rngs {
		rngs[i] = rng.Split()
	}
	partSamples := make([]*sampling.Sample, len(parts))
	parallel(len(parts), func(i int) {
		partSamples[i] = sampling.NewRandomSortSRS(cfg.Fraction, rngs[i]).SampleBatch(parts[i])
	})
	// Merge the per-partition uniform samples: counts add, value and key
	// columns concat, one pseudo-stratum with weight totalC/totalY.
	merged := &sampling.StratumSample{Stratum: sampling.SRSPseudoStratum}
	for _, ps := range partSamples {
		for _, st := range ps.Strata {
			merged.Values = append(merged.Values, st.Values...)
			merged.Keys = append(merged.Keys, st.Keys...)
			merged.Count += st.Count
		}
	}
	if y := len(merged.Values); y > 0 && merged.Count > int64(y) {
		merged.Weight = float64(merged.Count) / float64(y)
	} else {
		merged.Weight = 1
	}
	s := &sampling.Sample{Strata: []sampling.StratumSample{*merged}}
	_ = runJob(stream.PartitionRoundRobin(sampledEvents(s), cfg.Workers))
	return s
}

// sampleSTSOnDataset forms the full dataset and then runs Spark's
// sampleByKeyExact: the groupByKey shuffle (executed, with its barriers)
// followed by per-stratum random-sort sampling proportional to stratum
// size.
func sampleSTSOnDataset(cfg Config, rng *xrand.Rand, events []stream.Event) *sampling.Sample {
	parts := stream.PartitionRoundRobin(events, cfg.Workers)
	// The dataset must exist before sampling; STS then re-shuffles it.
	sts := sampling.NewStratifiedSTS(cfg.Fraction, cfg.Workers, true, rng.Split())
	s := sts.SampleBatch(slices.Concat(parts...))
	_ = runJob(stream.PartitionRoundRobin(sampledEvents(s), cfg.Workers))
	return s
}

// nativeDatasetSample runs the job over the complete batch: the exact
// sample is the batch itself.
func nativeDatasetSample(cfg Config, events []stream.Event) *sampling.Sample {
	parts := stream.PartitionRoundRobin(events, cfg.Workers)
	_ = runJob(parts)
	return exactSample(slices.Concat(parts...))
}

// sampledEvents flattens a sample into the (stratum, value) records the
// engine dataset holds.
func sampledEvents(s *sampling.Sample) []stream.Event {
	out := make([]stream.Event, 0, s.SampledCount())
	for i := range s.Strata {
		st := &s.Strata[i]
		for j, v := range st.Values {
			key := st.Stratum
			if st.Keys != nil {
				key = st.Keys[j]
			}
			out = append(out, stream.Event{Stratum: key, Value: v})
		}
	}
	return out
}
