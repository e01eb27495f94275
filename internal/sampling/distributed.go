package sampling

import (
	"sync"

	"streamapprox/internal/stream"
	"streamapprox/internal/xrand"
)

// DistributedOASRS runs OASRS across w workers with no synchronization
// during sampling (§3.2, "Distributed execution"): each worker samples an
// equal portion of every sub-stream into a local reservoir of size at most
// ⌈Ni/w⌉ and keeps a local arrival counter. Merging is pure concatenation
// plus weight computation from the summed counters — there is no shuffle,
// no sort, and no barrier on the data path, which is the architectural
// reason StreamApprox outperforms Spark's stratified sampling.
//
// The caller hands each worker its share of the items with AddBatch;
// dealing items round-robin models the paper's "each worker node samples
// an equal portion of items from this sub-stream".
type DistributedOASRS struct {
	workers []*workerOASRS
}

type workerOASRS struct {
	mu      sync.Mutex
	sampler *OASRS
}

// NewDistributedOASRS returns a sampler with w parallel workers sharing a
// total per-interval budget. Each worker receives budget/w (minimum 1).
// rng seeds are split per worker so streams are decorrelated.
func NewDistributedOASRS(budget, w int, policy SizePolicy, rng *xrand.Rand) *DistributedOASRS {
	if w < 1 {
		w = 1
	}
	perWorker := budget / w
	if perWorker < 1 {
		perWorker = 1
	}
	workers := make([]*workerOASRS, w)
	for i := range workers {
		workers[i] = &workerOASRS{sampler: NewOASRS(perWorker, policy, rng.Split())}
	}
	return &DistributedOASRS{workers: workers}
}

// SetBudget updates the total per-interval budget, dividing it equally
// among workers. It takes effect for reservoirs created afterwards (i.e.
// from the next interval), like OASRS.SetBudget.
func (d *DistributedOASRS) SetBudget(budget int) {
	perWorker := budget / len(d.workers)
	if perWorker < 1 {
		perWorker = 1
	}
	for _, w := range d.workers {
		w.mu.Lock()
		w.sampler.SetBudget(perWorker)
		w.mu.Unlock()
	}
}

// AddBatch offers records [from, to) of a columnar batch to worker i
// (OASRS.AddBatch). Safe for concurrent use by distinct goroutines (each
// worker is independently locked; goroutines pinned to distinct workers
// never contend).
func (d *DistributedOASRS) AddBatch(i int, b *stream.EventBatch, from, to int) {
	w := d.workers[i%len(d.workers)]
	w.mu.Lock()
	w.sampler.AddBatch(b, from, to)
	w.mu.Unlock()
}

// Finish merges the workers' local samples into the interval's global
// weighted sample and resets all workers. Per stratum: items are
// concatenated, counters summed, and the weight recomputed from the merged
// totals (Equation 1 applied to ΣCi over Σ|items|).
func (d *DistributedOASRS) Finish() *Sample {
	merged := make(map[string]*StratumSample)
	var order []string
	for _, w := range d.workers {
		w.mu.Lock()
		local := w.sampler.Finish()
		w.mu.Unlock()
		for i := range local.Strata {
			ls := &local.Strata[i]
			g, ok := merged[ls.Stratum]
			if !ok {
				g = &StratumSample{Stratum: ls.Stratum}
				merged[ls.Stratum] = g
				order = append(order, ls.Stratum)
			}
			g.Values = append(g.Values, ls.Values...)
			g.Count += ls.Count
		}
	}
	strata := make([]StratumSample, 0, len(order))
	for _, key := range order {
		g := merged[key]
		g.Weight = weightFor(g.Count, len(g.Values))
		strata = append(strata, *g)
	}
	sortStrata(strata)
	return &Sample{Strata: strata}
}
