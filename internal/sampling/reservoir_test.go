package sampling

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"testing"

	"streamapprox/internal/stream"
	"streamapprox/internal/xrand"
)

func mkEvents(stratum string, n int) []stream.Event {
	out := make([]stream.Event, n)
	for i := range out {
		out[i] = stream.Event{Stratum: stratum, Value: float64(i)}
	}
	return out
}

func mkValues(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(i)
	}
	return out
}

func TestReservoirFillsBelowCapacity(t *testing.T) {
	r := NewReservoir(10, xrand.New(1))
	r.AddBatch(mkValues(5))
	if got := len(r.Values()); got != 5 {
		t.Errorf("got %d values, want 5 (all kept when under capacity)", got)
	}
	if r.Seen() != 5 {
		t.Errorf("Seen = %d, want 5", r.Seen())
	}
}

func TestReservoirCapsAtCapacity(t *testing.T) {
	r := NewReservoir(10, xrand.New(2))
	r.AddBatch(mkValues(10000))
	if got := len(r.Values()); got != 10 {
		t.Errorf("got %d values, want exactly 10", got)
	}
	if r.Seen() != 10000 {
		t.Errorf("Seen = %d, want 10000", r.Seen())
	}
}

func TestReservoirNonPositiveCapacity(t *testing.T) {
	r := NewReservoir(0, xrand.New(3))
	r.AddBatch([]float64{1})
	if r.Capacity() != 1 || len(r.Values()) != 1 {
		t.Error("capacity <= 0 should clamp to 1")
	}
}

// TestReservoirUniformity verifies the defining invariant of reservoir
// sampling: after the stream ends, every item has equal probability N/n of
// being in the sample. We run many trials and chi-square-ish check the
// per-item selection frequencies, offering the items one per call.
func TestReservoirUniformity(t *testing.T) {
	const n, capN, trials = 100, 10, 20000
	counts := make([]int, n)
	rng := xrand.New(42)
	values := mkValues(n)
	for trial := 0; trial < trials; trial++ {
		r := NewReservoir(capN, rng)
		addEach(r, values)
		for _, v := range r.Values() {
			counts[int(v)]++
		}
	}
	want := float64(trials) * capN / n // expected selections per item
	sd := math.Sqrt(want * (1 - float64(capN)/n))
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 6*sd {
			t.Errorf("item %d selected %d times, want %.0f±%.0f", i, c, want, 3*sd)
		}
	}
}

func TestReservoirReset(t *testing.T) {
	r := NewReservoir(5, xrand.New(4))
	r.AddBatch(mkValues(20))
	r.Reset()
	if r.Seen() != 0 || len(r.Values()) != 0 {
		t.Error("Reset did not clear state")
	}
	r.AddBatch([]float64{9})
	if got := r.Values(); len(got) != 1 || got[0] != 9 {
		t.Error("reservoir unusable after Reset")
	}
}

func TestReservoirValuesIsACopy(t *testing.T) {
	r := NewReservoir(2, xrand.New(5))
	r.AddBatch([]float64{1})
	vals := r.Values()
	vals[0] = 99
	if r.Values()[0] != 1 {
		t.Error("Values leaked internal state")
	}
}

// addEach offers values to r one per call.
func addEach(r *Reservoir, values []float64) {
	for i := range values {
		r.AddBatch(values[i : i+1])
	}
}

// offerInChunks offers values to r in runs of random length up to max.
func offerInChunks(r *Reservoir, values []float64, split *xrand.Rand, max int) {
	for i := 0; i < len(values); {
		j := min(i+1+split.Intn(max), len(values))
		r.AddBatch(values[i:j])
		i = j
	}
}

// The tests named SkipReservoir pin the reservoir past fill, where each
// item takes its keyed draw, as it runs across calls.

func TestSkipReservoirMatchesSemantics(t *testing.T) {
	r := NewReservoir(10, xrand.New(6))
	offerInChunks(r, mkValues(10000), xrand.New(9), 300)
	if r.Seen() != 10000 {
		t.Errorf("Seen = %d", r.Seen())
	}
	got := r.Values()
	if len(got) != 10 {
		t.Fatalf("got %d values, want 10", len(got))
	}
	kept := map[float64]bool{}
	for _, v := range got {
		if v != math.Trunc(v) || v < 0 || v >= 10000 || kept[v] {
			t.Fatalf("sample %v holds a value never offered, or one twice", got)
		}
		kept[v] = true
	}
}

// Below capacity nothing is random: every value is kept in order, no
// number is drawn, and no spare slot is allocated.
func TestSkipReservoirUnderfill(t *testing.T) {
	rng, twin := xrand.New(7), xrand.New(7)
	r := NewReservoir(10, rng)
	twin.Uint64()
	r.AddBatch(mkValues(3))
	r.AddBatch([]float64{3})
	if got := r.Values(); !slices.Equal(got, mkValues(4)) {
		t.Errorf("got %v, want all 4 in order", got)
	}
	if rng.Uint64() != twin.Uint64() {
		t.Error("an underfull reservoir drew from its random stream")
	}
	r.AddBatch(mkValues(6))
	if len(r.vals) != 10 {
		t.Errorf("a reservoir filled to capacity holds %d slots, want 10", len(r.vals))
	}
}

// TestSkipReservoirUniformity pins the keyed draw at the edges of the
// sampling ratio: one slot, and half the stream. Every position is kept
// with probability N/n.
func TestSkipReservoirUniformity(t *testing.T) {
	const n, trials = 100, 20000
	rng, split := xrand.New(43), xrand.New(44)
	values := mkValues(n)
	for _, capN := range []int{1, 50} {
		counts := make([]int, n)
		for trial := 0; trial < trials; trial++ {
			r := NewReservoir(capN, rng)
			offerInChunks(r, values, split, 9)
			for _, v := range r.Values() {
				counts[int(v)]++
			}
		}
		p := float64(capN) / n
		want, sd := trials*p, math.Sqrt(trials*p*(1-p))
		for i, c := range counts {
			if math.Abs(float64(c)-want) > 6*sd {
				t.Errorf("capacity %d: item %d selected %d times, want %.0f±%.0f", capN, i, c, want, 6*sd)
			}
		}
	}
}

// Reset keeps the key: the reset reservoir samples what a new one with
// the same key does.
func TestSkipReservoirReset(t *testing.T) {
	rng, twin := xrand.New(8), xrand.New(8)
	r := NewReservoir(5, rng)
	r.AddBatch(mkValues(100))
	r.Reset()
	if st := r.State(); st.Seen != 0 || len(st.Values) != 0 || st.Capacity != 5 {
		t.Fatalf("Reset left %+v", st)
	}
	fresh := NewReservoir(5, twin)
	r.AddBatch(mkValues(100))
	fresh.AddBatch(mkValues(100))
	if !slices.Equal(r.Values(), fresh.Values()) {
		t.Errorf("after Reset %v, a new reservoir %v", r.Values(), fresh.Values())
	}
}

// Over many keys the keyed draw keeps each of n items at Algorithm R's
// rate N/n, and a pair of items together at N(N−1)/(n(n−1)), within
// binomial bounds.
func TestKeyedReservoirInclusion(t *testing.T) {
	const n, capN, keys = 40, 8, 4000
	counts := make([]int, n)
	pairs := [][2]int{{0, 1}, {0, n - 1}, {capN - 1, capN}, {n - 2, n - 1}}
	together := make([]int, len(pairs))
	values, rng := mkValues(n), xrand.New(51)
	for range keys {
		r := NewReservoir(capN, rng)
		r.AddBatch(values)
		kept := make([]bool, n)
		for _, v := range r.Values() {
			kept[int(v)] = true
			counts[int(v)]++
		}
		for i, p := range pairs {
			if kept[p[0]] && kept[p[1]] {
				together[i]++
			}
		}
	}
	within := func(what string, c int, p float64) {
		want, sd := keys*p, math.Sqrt(keys*p*(1-p))
		if math.Abs(float64(c)-want) > 5*sd {
			t.Errorf("%s kept %d times in %d keys, want %.0f±%.0f", what, c, keys, want, 5*sd)
		}
	}
	for i, c := range counts {
		within(fmt.Sprintf("item %d", i), c, float64(capN)/n)
	}
	for i, p := range pairs {
		within(fmt.Sprintf("items %v", p), together[i], float64(capN*(capN-1))/(n*(n-1)))
	}
}

// BenchmarkReservoirAddBatch offers 4096-value runs to one reservoir in
// its two regimes: fill (the interval ends before the reservoir is full,
// so every value is kept) and skip (the reservoir filled long ago, so
// nearly every value is rejected).
func BenchmarkReservoirAddBatch(b *testing.B) {
	values := mkValues(4096)
	report := func(b *testing.B) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(values)), "ns/item")
	}
	b.Run("fill", func(b *testing.B) {
		r := NewReservoir(len(values), xrand.New(1))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			r.Reset()
			r.AddBatch(values)
		}
		report(b)
	})
	b.Run("skip", func(b *testing.B) {
		r := NewReservoir(64, xrand.New(1))
		for i := 0; i < 100; i++ {
			r.AddBatch(values)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r.AddBatch(values)
		}
		report(b)
	})
}

// At t = 3·2⁶², ⌊x·t/2⁶⁴⌋ alone would draw a multiple of 3 half the time;
// with redraw's rejection each residue is drawn a third of the time.
func TestRedrawMakesLemireExact(t *testing.T) {
	const n, draws = 3 << 62, 30000
	rng := xrand.New(52)
	zeros := 0
	for range draws {
		key := rng.Uint64()
		j, lo := bits.Mul64(xrand.At(key, n), n)
		if lo < n {
			j = redraw(key, n, j, lo)
		}
		if j >= n {
			t.Fatalf("drew %d, outside [0, %d)", j, uint64(n))
		}
		if j%3 == 0 {
			zeros++
		}
	}
	want, sd := draws/3.0, math.Sqrt(draws*(1.0/3)*(2.0/3))
	if math.Abs(float64(zeros)-want) > 5*sd {
		t.Errorf("a multiple of 3 drawn %d times in %d, want %.0f±%.0f", zeros, draws, want, 5*sd)
	}
}
