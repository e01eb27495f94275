package sampling

import (
	"math"
	"reflect"
	"slices"
	"testing"
	"time"

	"streamapprox/internal/stream"
	"streamapprox/internal/xrand"
)

// These tests pin sampling in chunks to sampling one record per call (the
// scalar path, "Add" in their names): both run the one skip chain, which
// outlives every call, so they draw the same numbers at the same items
// and keep the same ones — the samples are equal, not merely alike. The
// distribution itself is pinned against theory (each item kept with
// probability N/n).

// addEachEvent offers events to o one record per call.
func addEachEvent(o *OASRS, events []stream.Event) {
	b := stream.BatchOf(events)
	defer b.Release()
	for i := range events {
		o.AddBatch(b, i, i+1)
	}
}

// feedBatches offers events through AddBatch in randomly sized chunks,
// carrying skip chains across every chunk boundary.
func feedBatches(o *OASRS, events []stream.Event, rng *xrand.Rand) {
	for i := 0; i < len(events); {
		j := i + 1 + rng.Intn(40)
		if j > len(events) {
			j = len(events)
		}
		b := stream.BatchOf(events[i:j])
		o.AddBatch(b, 0, b.Len())
		b.Release()
		i = j
	}
}

func TestReservoirAddBatchBookkeepingMatchesAdd(t *testing.T) {
	values := mkValues(5000)

	ra := NewReservoir(64, xrand.New(1))
	addEach(ra, values)
	rb := NewReservoir(64, xrand.New(1))
	rb.AddBatch(values)
	if a, b := ra.State(), rb.State(); !reflect.DeepEqual(a, b) {
		t.Errorf("Add left %+v, AddBatch %+v", a, b)
	}
	// Below capacity every value is kept in arrival order — also when the
	// bulk fill arrives in pieces and its last piece runs past capacity.
	rs := NewReservoir(64, xrand.New(3))
	rs.AddBatch(values[:10])
	rs.AddBatch(values[10:40])
	if got := rs.Values(); !slices.Equal(got, values[:40]) {
		t.Fatalf("fill phase reordered values: %v", got)
	}
	rs.AddBatch(values[40:100])
	if rs.Seen() != 100 || len(rs.Values()) != 64 {
		t.Fatalf("fill across capacity: seen %d, kept %d", rs.Seen(), len(rs.Values()))
	}
	kept := 0
	for i, v := range rs.Values() {
		if v == values[i] {
			kept++
		} else if v < 64 {
			t.Errorf("slot %d holds %v, a value the fill phase put elsewhere", i, v)
		}
	}
	if kept < 64-36 {
		t.Errorf("36 offers past capacity replaced %d slots", 64-kept)
	}
}

// TestReservoirAddBatchAgreesWithAddOnValues offers a skewed value column
// one value per call and in runs of random length, from the same random
// state: the two reservoirs, skip chains
// included, and their random streams must end bit-identical.
func TestReservoirAddBatchAgreesWithAddOnValues(t *testing.T) {
	const n, capN, trials = 120, 12, 2000
	values := make([]float64, n)
	gen := xrand.New(46)
	for i := range values {
		values[i] = math.Exp(gen.Gaussian(0, 1.5)) + float64(i)/1e6 // distinct, heavy-tailed
	}
	split := xrand.New(49)
	for trial := 0; trial < trials; trial++ {
		rngs := [2]*xrand.Rand{xrand.New(uint64(trial)), xrand.New(uint64(trial))}
		scalar := NewReservoir(capN, rngs[0])
		addEach(scalar, values)
		batched := NewReservoir(capN, rngs[1])
		offerInChunks(batched, values, split, 23)
		if a, b := scalar.State(), batched.State(); !reflect.DeepEqual(a, b) || rngs[0].State() != rngs[1].State() {
			t.Fatalf("trial %d: Add left %+v, AddBatch %+v", trial, a, b)
		}
	}
}

// OASRS.AddBatch samples records [from, to) of the batch and reads
// nothing of the value column outside that range.
func TestOASRSAddBatchHonoursRange(t *testing.T) {
	b := stream.GetEventBatch()
	defer b.Release()
	ids := []int32{b.Intern("a"), b.Intern("b")}
	for i := 0; i < 600; i++ {
		b.Append(ids[(i/50)%2], float64(i), int64(i))
	}
	o := NewOASRS(80, nil, xrand.New(50))
	o.AddBatch(b, 125, 475)
	s := o.Finish()
	if s.TotalCount() != 350 {
		t.Fatalf("offered 350 records, counted %d", s.TotalCount())
	}
	for _, st := range s.Strata {
		for _, v := range st.Values {
			if v < 125 || v >= 475 {
				t.Errorf("stratum %s sampled %v from outside [125, 475)", st.Stratum, v)
			}
			if want := []string{"a", "b"}[(int(v)/50)%2]; st.Stratum != want {
				t.Errorf("value %v of stratum %s sampled into %s", v, want, st.Stratum)
			}
		}
	}
}

// TestReservoirAddBatchUniformity pins the skip chain to theory: it must
// leave every stream item with Algorithm R's marginal selection
// probability N/n when the stream arrives as many small batches the chain
// runs across.
func TestReservoirAddBatchUniformity(t *testing.T) {
	const n, capN, trials = 100, 10, 20000
	counts := make([]int, n)
	rng := xrand.New(44)
	split := xrand.New(45)
	values := mkValues(n)
	for trial := 0; trial < trials; trial++ {
		r := NewReservoir(capN, rng)
		offerInChunks(r, values, split, 17)
		for _, v := range r.Values() {
			counts[int(v)]++
		}
	}
	want := float64(trials) * capN / n
	sd := math.Sqrt(want * (1 - float64(capN)/n))
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 6*sd {
			t.Errorf("item %d selected %d times, want %.0f±%.0f", i, c, want, 3*sd)
		}
	}
}

// mixedStream builds an interleaved multi-stratum stream with skewed
// arrival rates — the workload OASRS exists for.
func mixedStream(n int, rng *xrand.Rand) []stream.Event {
	strata := []string{"heavy", "heavy", "heavy", "medium", "medium", "rare"}
	base := time.Date(2017, 12, 11, 0, 0, 0, 0, time.UTC)
	out := make([]stream.Event, n)
	for i := range out {
		out[i] = stream.Event{
			Stratum: strata[rng.Intn(len(strata))],
			Value:   float64(rng.Intn(1000)),
			Time:    base.Add(time.Duration(i) * time.Millisecond),
		}
	}
	return out
}

func TestOASRSAddBatchBookkeepingMatchesAdd(t *testing.T) {
	events := mixedStream(20000, xrand.New(7))
	scalar := NewOASRS(120, nil, xrand.New(8))
	addEachEvent(scalar, events)
	vec := NewOASRS(120, nil, xrand.New(8))
	feedBatches(vec, events, xrand.New(10))
	if a, b := scalar.State(), vec.State(); !reflect.DeepEqual(a, b) {
		t.Fatalf("mid-interval state: Add %+v, AddBatch %+v", a, b)
	}
	if sa, sb := scalar.Finish(), vec.Finish(); !reflect.DeepEqual(sa, sb) {
		t.Errorf("samples differ:\nAdd      %+v\nAddBatch %+v", sa, sb)
	}
}

// TestOASRSAddBatchUnbiasedEstimates is the end-to-end statistical check:
// across many intervals, the weighted-sum estimator over AddBatch samples
// must be unbiased for the true interval sum (paper Equation 1).
func TestOASRSAddBatchUnbiasedEstimates(t *testing.T) {
	const trials = 300
	var relErr float64
	rng := xrand.New(21)
	for trial := 0; trial < trials; trial++ {
		events := mixedStream(4000, xrand.New(uint64(100+trial)))
		var truth float64
		for _, e := range events {
			truth += e.Value
		}
		vec := NewOASRS(90, nil, xrand.New(uint64(300+trial)))
		feedBatches(vec, events, rng)
		var est float64
		for _, st := range vec.Finish().Strata {
			for _, v := range st.Values {
				est += st.Weight * v
			}
		}
		relErr += (est - truth) / truth
	}
	// Mean relative error of an unbiased estimator over 300 trials stays
	// well under 2%; a biased skip loop (off-by-one in the acceptance
	// probability) shows up as several percent.
	if m := math.Abs(relErr) / trials; m > 0.02 {
		t.Errorf("mean relative error %.4f, want ~0", m)
	}
}

// TestOASRSAddBatchDictCollisionAcrossBatches guards the dense table:
// dictionary IDs are batch-local, so ID 0 meaning "a" in one batch and
// "b" in the next must still route records to the right reservoirs.
func TestOASRSAddBatchDictCollisionAcrossBatches(t *testing.T) {
	o := NewOASRS(100, nil, xrand.New(32))
	b1 := stream.BatchOf(mkEvents("a", 7))
	o.AddBatch(b1, 0, b1.Len())
	b1.Release()
	b2 := stream.BatchOf(mkEvents("b", 5)) // "b" gets dictionary ID 0 here too
	o.AddBatch(b2, 0, b2.Len())
	b2.Release()
	s := o.Finish()
	if len(s.Strata) != 2 {
		t.Fatalf("got %d strata, want 2: %+v", len(s.Strata), s.Strata)
	}
	counts := map[string]int64{}
	for _, st := range s.Strata {
		counts[st.Stratum] = st.Count
	}
	if counts["a"] != 7 || counts["b"] != 5 {
		t.Errorf("per-stratum counts %v, want a:7 b:5", counts)
	}
}

func BenchmarkOASRSAddBatch(b *testing.B) {
	events := mixedStream(4096, xrand.New(51))
	batch := stream.BatchOf(events)
	defer batch.Release()
	o := NewOASRS(200, nil, xrand.New(52))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		o.AddBatch(batch, 0, batch.Len())
	}
}
