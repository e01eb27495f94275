package sampling

import (
	"math"
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
	for _, v := range mkValues(5) {
		r.Add(v)
	}
	if got := len(r.Values()); got != 5 {
		t.Errorf("got %d values, want 5 (all kept when under capacity)", got)
	}
	if r.Seen() != 5 {
		t.Errorf("Seen = %d, want 5", r.Seen())
	}
}

func TestReservoirCapsAtCapacity(t *testing.T) {
	r := NewReservoir(10, xrand.New(2))
	for _, v := range mkValues(10000) {
		r.Add(v)
	}
	if got := len(r.Values()); got != 10 {
		t.Errorf("got %d values, want exactly 10", got)
	}
	if r.Seen() != 10000 {
		t.Errorf("Seen = %d, want 10000", r.Seen())
	}
}

func TestReservoirNonPositiveCapacity(t *testing.T) {
	r := NewReservoir(0, xrand.New(3))
	r.Add(1)
	if r.Capacity() != 1 || len(r.Values()) != 1 {
		t.Error("capacity <= 0 should clamp to 1")
	}
}

// TestReservoirUniformity verifies the defining invariant of reservoir
// sampling: after the stream ends, every item has equal probability N/n of
// being in the sample. We run many trials and chi-square-ish check the
// per-item selection frequencies.
func TestReservoirUniformity(t *testing.T) {
	const n, capN, trials = 100, 10, 20000
	counts := make([]int, n)
	rng := xrand.New(42)
	values := mkValues(n)
	for trial := 0; trial < trials; trial++ {
		r := NewReservoir(capN, rng)
		for _, v := range values {
			r.Add(v)
		}
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
	for _, v := range mkValues(20) {
		r.Add(v)
	}
	r.Reset()
	if r.Seen() != 0 || len(r.Values()) != 0 {
		t.Error("Reset did not clear state")
	}
	r.Add(9)
	if got := r.Values(); len(got) != 1 || got[0] != 9 {
		t.Error("reservoir unusable after Reset")
	}
}

func TestReservoirValuesIsACopy(t *testing.T) {
	r := NewReservoir(2, xrand.New(5))
	r.Add(1)
	vals := r.Values()
	vals[0] = 99
	if r.Values()[0] != 1 {
		t.Error("Values leaked internal state")
	}
}

func TestSkipReservoirMatchesSemantics(t *testing.T) {
	s := NewSkipReservoir(10, xrand.New(6))
	for _, v := range mkValues(10000) {
		s.Add(v)
	}
	if got := len(s.Values()); got != 10 {
		t.Errorf("got %d values, want 10", got)
	}
	if s.Seen() != 10000 {
		t.Errorf("Seen = %d", s.Seen())
	}
}

func TestSkipReservoirUnderfill(t *testing.T) {
	s := NewSkipReservoir(10, xrand.New(7))
	for _, v := range mkValues(4) {
		s.Add(v)
	}
	if got := len(s.Values()); got != 4 {
		t.Errorf("got %d values, want all 4", got)
	}
}

// TestSkipReservoirUniformity checks Algorithm L yields the same uniform
// marginal selection probabilities as Algorithm R.
func TestSkipReservoirUniformity(t *testing.T) {
	const n, capN, trials = 100, 10, 20000
	counts := make([]int, n)
	rng := xrand.New(43)
	values := mkValues(n)
	for trial := 0; trial < trials; trial++ {
		s := NewSkipReservoir(capN, rng)
		for _, v := range values {
			s.Add(v)
		}
		for _, v := range s.Values() {
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

func TestSkipReservoirReset(t *testing.T) {
	s := NewSkipReservoir(5, xrand.New(8))
	for _, v := range mkValues(100) {
		s.Add(v)
	}
	s.Reset()
	if s.Seen() != 0 || len(s.Values()) != 0 {
		t.Error("Reset did not clear state")
	}
	for _, v := range mkValues(100) {
		s.Add(v)
	}
	if len(s.Values()) != 5 {
		t.Error("skip reservoir broken after Reset")
	}
}

func BenchmarkReservoirAdd(b *testing.B) {
	r := NewReservoir(1000, xrand.New(1))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Add(1)
	}
}

func BenchmarkSkipReservoirAdd(b *testing.B) {
	r := NewSkipReservoir(1000, xrand.New(1))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Add(1)
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
