package sampling

import (
	"hash/fnv"
	"math"
	"sort"
	"sync"

	"streamapprox/internal/stream"
	"streamapprox/internal/xrand"
)

// StratifiedSTS reproduces Apache Spark's stratified sampling
// (`sampleByKey` / `sampleByKeyExact`, §4.1.1): the batch is first grouped
// by stratum with a groupBy(strata) shuffle, then simple random sampling
// via random sort runs on each stratum with a per-stratum sampling
// fraction proportional to the stratum's size.
//
// Crucially, the implementation executes — not simulates — the two costs
// the paper identifies (§4.1, §5.2):
//
//  1. The shuffle: input partitions are re-partitioned by stratum hash
//     across workers, requiring every worker to exchange data with every
//     other worker and to synchronize on a barrier before sampling can
//     begin (Spark's expensive join/groupByKey synchronization).
//  2. The sort: each stratum is sampled by the random-sort method, whose
//     sort step dominates for large strata.
//
// Unlike OASRS, the per-stratum sample size is proportional to the
// stratum's size (fraction * Ci), so a stratum with a high arrival rate
// costs proportionally more to process — the reason STS throughput trails
// OASRS even at the same accuracy (§5.2).
type StratifiedSTS struct {
	fraction float64
	workers  int
	exact    bool
	rng      *xrand.Rand
}

// NewStratifiedSTS returns an STS batch sampler selecting the given
// fraction of every stratum, executing the shuffle across `workers`
// parallel workers. exact selects sampleByKeyExact semantics (full random
// sort per stratum, exactly ceil(f*Ci) items) rather than the Bernoulli
// approximation.
func NewStratifiedSTS(fraction float64, workers int, exact bool, rng *xrand.Rand) *StratifiedSTS {
	if fraction < 0 {
		fraction = 0
	}
	if fraction > 1 {
		fraction = 1
	}
	if workers < 1 {
		workers = 1
	}
	return &StratifiedSTS{fraction: fraction, workers: workers, exact: exact, rng: rng}
}

func stratumWorker(stratum string, workers int) int {
	h := fnv.New32a()
	_, _ = h.Write([]byte(stratum))
	return int(h.Sum32()) % workers
}

// SampleBatch runs the full groupBy-shuffle-sort pipeline and returns the
// per-stratum sample with weights Ci/Yi.
func (s *StratifiedSTS) SampleBatch(events []stream.Event) *Sample {
	// Stage 0: the batch arrives split across input partitions, as it
	// would from the engine.
	inputs := stream.PartitionRoundRobin(events, s.workers)

	// Stage 1: shuffle. Every worker scans its input partition and routes
	// each item to the worker owning the item's stratum. outboxes[from][to]
	// collects the exchange; a WaitGroup barrier separates the map side
	// from the reduce side, exactly like Spark's stage boundary.
	outboxes := make([][][]stream.Event, s.workers)
	var mapWG sync.WaitGroup
	for w := 0; w < s.workers; w++ {
		outboxes[w] = make([][]stream.Event, s.workers)
		mapWG.Add(1)
		go func(w int) {
			defer mapWG.Done()
			for _, e := range inputs[w] {
				dst := stratumWorker(e.Stratum, s.workers)
				outboxes[w][dst] = append(outboxes[w][dst], e)
			}
		}(w)
	}
	mapWG.Wait() // <- the synchronization barrier the paper calls out

	// Stage 2: each worker gathers its strata and samples them by random
	// sort. Workers use split RNGs so the stage is deterministic given the
	// parent seed.
	results := make([][]StratumSample, s.workers)
	rngs := make([]*xrand.Rand, s.workers)
	for w := 0; w < s.workers; w++ {
		rngs[w] = s.rng.Split()
	}
	var reduceWG sync.WaitGroup
	for w := 0; w < s.workers; w++ {
		reduceWG.Add(1)
		go func(w int) {
			defer reduceWG.Done()
			// Gather this worker's inbox from every sender.
			var inbox []stream.Event
			for from := 0; from < s.workers; from++ {
				inbox = append(inbox, outboxes[from][w]...)
			}
			groups := stream.PartitionByStratum(inbox)
			rng := rngs[w]
			for stratum, items := range groups {
				results[w] = append(results[w], s.sampleStratum(stratum, items, rng))
			}
		}(w)
	}
	reduceWG.Wait() // <- second barrier before results can be merged

	var strata []StratumSample
	for _, rs := range results {
		strata = append(strata, rs...)
	}
	sortStrata(strata)
	return &Sample{Strata: strata}
}

// sampleStratum applies random-sort SRS to one stratum.
func (s *StratifiedSTS) sampleStratum(stratum string, items []stream.Event, rng *xrand.Rand) StratumSample {
	ci := int64(len(items))
	k := int(math.Ceil(s.fraction * float64(len(items))))
	var selected []float64
	switch {
	case k >= len(items):
		selected = make([]float64, len(items))
		for i, e := range items {
			selected[i] = e.Value
		}
	case s.exact:
		// sampleByKeyExact: assign keys, fully sort, take the k smallest.
		ks := make([]keyed, len(items))
		for i := range items {
			ks[i] = keyed{key: rng.Float64(), i: i}
		}
		sortKeyed(ks)
		selected = make([]float64, k)
		for i := range selected {
			selected[i] = items[ks[i].i].Value
		}
	default:
		// sampleByKey: independent Bernoulli(fraction) per item.
		selected = make([]float64, 0, k+k/4+1)
		for _, e := range items {
			if rng.Bool(s.fraction) {
				selected = append(selected, e.Value)
			}
		}
	}
	return StratumSample{
		Stratum: stratum,
		Values:  selected,
		Count:   ci,
		Weight:  weightFor(ci, len(selected)),
	}
}

// sortKeyed sorts by key ascending.
func sortKeyed(ks []keyed) {
	sort.Slice(ks, func(i, j int) bool { return ks[i].key < ks[j].key })
}
