package stratify

import (
	"math"
	"testing"

	"streamapprox/internal/stream"
	"streamapprox/internal/xrand"
)

func TestQuantileSeparatesModes(t *testing.T) {
	rng := xrand.New(1)
	q := NewQuantile(2, 256, 128, rng.Split())
	// A bimodal stream: values near 10 and values near 10000.
	assignments := map[string]map[string]int{"low": {}, "high": {}}
	for i := 0; i < 20000; i++ {
		var e stream.Event
		var truth string
		if i%2 == 0 {
			e = stream.Event{Value: rng.Gaussian(10, 2)}
			truth = "low"
		} else {
			e = stream.Event{Value: rng.Gaussian(10000, 200)}
			truth = "high"
		}
		assignments[truth][q.Assign(e)]++
	}
	// After warm-up, the two modes must land in different strata almost
	// always. Find each truth's dominant stratum and check purity.
	dom := func(m map[string]int) (string, float64) {
		best, total := "", 0
		bn := 0
		for s, n := range m {
			total += n
			if n > bn {
				best, bn = s, n
			}
		}
		return best, float64(bn) / float64(total)
	}
	lowS, lowP := dom(assignments["low"])
	highS, highP := dom(assignments["high"])
	if lowS == highS {
		t.Fatalf("both modes assigned to stratum %q", lowS)
	}
	if lowP < 0.95 || highP < 0.95 {
		t.Errorf("purity too low: low %.3f high %.3f", lowP, highP)
	}
}

func TestQuantileEdgesRefresh(t *testing.T) {
	rng := xrand.New(2)
	q := NewQuantile(4, 512, 64, rng.Split())
	for i := 0; i < 1000; i++ {
		q.Assign(stream.Event{Value: rng.Gaussian(100, 10)})
	}
	edges := q.Edges()
	if len(edges) == 0 {
		t.Fatal("no edges estimated")
	}
	for i := 1; i < len(edges); i++ {
		if edges[i] <= edges[i-1] {
			t.Fatalf("edges not strictly increasing: %v", edges)
		}
	}
	// Edges of N(100,10) quartiles should be near 93, 100, 107.
	if edges[0] < 80 || edges[len(edges)-1] > 120 {
		t.Errorf("edges implausible for N(100,10): %v", edges)
	}
}

func TestQuantileConstantStreamCollapses(t *testing.T) {
	rng := xrand.New(3)
	q := NewQuantile(4, 64, 16, rng.Split())
	s := map[string]bool{}
	for i := 0; i < 500; i++ {
		s[q.Assign(stream.Event{Value: 42})] = true
	}
	if len(s) != 1 {
		t.Errorf("constant stream split into %d strata: %v", len(s), s)
	}
}

func TestQuantileClamps(t *testing.T) {
	rng := xrand.New(4)
	q := NewQuantile(1, 0, 0, rng)
	if q.k != 2 {
		t.Errorf("k clamped to %d, want 2", q.k)
	}
	q2 := NewQuantile(1000, 10, 10, rng)
	if q2.k != 64 {
		t.Errorf("k clamped to %d, want 64", q2.k)
	}
}

func TestKMeansSeparatesModes(t *testing.T) {
	rng := xrand.New(5)
	m := NewKMeans(2, rng.Split())
	counts := map[string]map[string]int{"low": {}, "high": {}}
	for i := 0; i < 20000; i++ {
		var e stream.Event
		var truth string
		if i%2 == 0 {
			e = stream.Event{Value: rng.Gaussian(10, 2)}
			truth = "low"
		} else {
			e = stream.Event{Value: rng.Gaussian(1000, 50)}
			truth = "high"
		}
		counts[truth][m.Assign(e)]++
	}
	// Centroids must converge near the two modes.
	cs := m.Centroids()
	if len(cs) != 2 {
		t.Fatalf("centroids = %v", cs)
	}
	lo, hi := math.Min(cs[0], cs[1]), math.Max(cs[0], cs[1])
	if math.Abs(lo-10) > 5 || math.Abs(hi-1000) > 100 {
		t.Errorf("centroids did not converge to modes: %v", cs)
	}
}

func TestKMeansSemiSupervisedPinning(t *testing.T) {
	rng := xrand.New(6)
	m := NewKMeans(2, rng.Split())
	// Labeled events pin cluster c01.
	for i := 0; i < 100; i++ {
		got := m.Assign(stream.Event{Stratum: "c01", Value: 500})
		if got != "c01" {
			t.Fatalf("labeled event assigned to %q", got)
		}
	}
	cs := m.Centroids()
	found := false
	for _, c := range cs {
		if math.Abs(c-500) <= 1 {
			found = true
		}
	}
	if !found {
		t.Errorf("pinned centroid = %v, want one ≈500", cs)
	}
}

func TestKMeansAdaptsToDrift(t *testing.T) {
	rng := xrand.New(7)
	m := NewKMeans(2, rng.Split())
	for i := 0; i < 5000; i++ {
		m.Assign(stream.Event{Value: rng.Gaussian(10, 1)})
		m.Assign(stream.Event{Value: rng.Gaussian(100, 5)})
	}
	// The upper mode drifts to 200; the rate floor lets the centroid
	// follow.
	for i := 0; i < 200000; i++ {
		m.Assign(stream.Event{Value: rng.Gaussian(200, 5)})
	}
	cs := m.Centroids()
	hi := math.Max(cs[0], cs[1])
	if math.Abs(hi-200) > 20 {
		t.Errorf("centroid did not follow drift: %v", cs)
	}
}
