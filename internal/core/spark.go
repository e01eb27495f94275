package core

import (
	"streamapprox/internal/batch"
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
//	             Dataset of survivors -> job
//	SparkSRS:    events -> full Dataset -> per-partition random-sort
//	             SRS on the dataset -> job
//	SparkSTS:    events -> full Dataset -> groupByKey shuffle + barrier +
//	             per-stratum random sort -> job
//	NativeSpark: events -> full Dataset -> job over everything
func runBatched(cfg Config, events []stream.Event) (*RunStats, error) {
	pool := batch.NewPool(cfg.Workers)
	defer pool.Close()
	rng := xrand.New(cfg.Seed)

	batches := batch.Split(stream.NewSliceSource(events), cfg.BatchInterval)
	w := newWindows(cfg)

	// The OASRS sampler persists across batches so its per-stratum sizing
	// adapts from one interval to the next (Algorithm 3's Update(S)).
	var oasrs *sampling.DistributedOASRS
	if cfg.System == SparkApprox {
		oasrs = sampling.NewDistributedOASRS(1, pool.Size(), nil, rng.Split())
	}

	for _, b := range batches {
		var s *sampling.Sample
		switch cfg.System {
		case SparkApprox:
			s = sampleApproxPreDataset(cfg, pool, oasrs, b.Events)
		case SparkSRS:
			s = sampleSRSOnDataset(cfg, pool, rng, b.Events)
		case SparkSTS:
			s = sampleSTSOnDataset(cfg, pool, rng, b.Events)
		default: // NativeSpark
			s = nativeDatasetSample(pool, b.Events)
		}
		// Each micro-batch is one pane of the slide segment it starts in;
		// the windows it completes fire at once.
		w.Add(b.Start.Truncate(cfg.WindowSlide), cfg.Query.Summarize(s))
		w.Fire(b.Start, w.emit)
	}
	return &RunStats{Results: w.flush()}, nil
}

// sampleApproxPreDataset is the ApproxKafkaRDD path: the batch's items
// stream through a distributed OASRS sampler with no synchronization, and
// only the surviving sample is materialized into a Dataset for the
// data-parallel job. The job's input is |sample| items instead of
// |batch| items — the cost the figures measure.
func sampleApproxPreDataset(cfg Config, pool *batch.Pool, d *sampling.DistributedOASRS, events []stream.Event) *sampling.Sample {
	budget := int(cfg.Fraction * float64(len(events)))
	if budget < 1 {
		budget = 1
	}
	d.SetBudget(budget)
	// Workers consume disjoint round-robin shards of the incoming batch,
	// each feeding its own lock-free local reservoir set.
	shards := stream.PartitionRoundRobin(events, pool.Size())
	pool.RunN(len(shards), func(i int) {
		for _, e := range shards[i] {
			d.AddAt(i, e)
		}
	})
	s := d.Finish()
	// Materialize only the sampled items into the engine dataset and run
	// the data-parallel job over the survivors; discarded items never pay
	// the per-record job cost.
	ds := batch.NewDataset(pool, sampledEvents(s))
	_ = runJob(ds)
	return s
}

// sampleSRSOnDataset forms the full Dataset first (the cost StreamApprox
// avoids) and then runs Spark's `sample` on it: per-partition random-sort
// selection at the configured fraction, merged into one uniform sample.
func sampleSRSOnDataset(cfg Config, pool *batch.Pool, rng *xrand.Rand, events []stream.Event) *sampling.Sample {
	ds := batch.NewDataset(pool, events)
	parts := ds.NumPartitions()
	rngs := make([]*xrand.Rand, parts)
	for i := range rngs {
		rngs[i] = rng.Split()
	}
	partSamples := make([]*sampling.Sample, parts)
	ds.ForeachPartition(func(i int, part []stream.Event) {
		partSamples[i] = sampling.NewRandomSortSRS(cfg.Fraction, rngs[i]).SampleBatch(part)
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
	jobDS := batch.NewDataset(pool, sampledEvents(s))
	_ = runJob(jobDS)
	return s
}

// sampleSTSOnDataset forms the full Dataset and then runs Spark's
// sampleByKeyExact: the groupByKey shuffle (executed, with its barriers)
// followed by per-stratum random-sort sampling proportional to stratum
// size.
func sampleSTSOnDataset(cfg Config, pool *batch.Pool, rng *xrand.Rand, events []stream.Event) *sampling.Sample {
	ds := batch.NewDataset(pool, events)
	// The dataset must exist before sampling; STS then re-shuffles it.
	sts := sampling.NewStratifiedSTS(cfg.Fraction, pool.Size(), true, rng.Split())
	s := sts.SampleBatch(ds.Collect())
	jobDS := batch.NewDataset(pool, sampledEvents(s))
	_ = runJob(jobDS)
	return s
}

// nativeDatasetSample runs the job over the complete batch: the exact
// sample is the batch itself.
func nativeDatasetSample(pool *batch.Pool, events []stream.Event) *sampling.Sample {
	ds := batch.NewDataset(pool, events)
	_ = runJob(ds)
	return exactSample(ds.Collect())
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
