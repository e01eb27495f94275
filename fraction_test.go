package streamapprox

import (
	"math"
	"testing"
	"time"

	"streamapprox/internal/workload"
	"streamapprox/internal/xrand"
)

// A session asked for a fraction samples that fraction, skew or not: on
// the §5.7 mix (80/19/1 %) the 1 % sub-stream cannot fill a third of the
// budget, and what it leaves goes to the two that overflow theirs. The
// first two windows cover the bootstrap segment, sampled before any
// arrival count was known.
func TestFractionIsSpentOnSkew(t *testing.T) {
	events := workload.Generate(xrand.New(9), 8*time.Second, workload.SkewGaussian(100000)...)
	s := NewSession(SessionConfig{Query: Sum, WindowSize: 2 * time.Second, WindowSlide: time.Second, Fraction: 0.1, Seed: 9})
	b := NewEventBatch()
	defer b.Release()
	for _, e := range events {
		b.AppendEvent(e)
	}
	if err := s.PushBatch(b, 0, b.Len()); err != nil {
		t.Fatal(err)
	}
	windows := s.Poll()
	if len(windows) < 6 {
		t.Fatalf("%d windows", len(windows))
	}
	var bound float64
	for i, w := range windows[2:] {
		if got := float64(w.Sampled) / float64(w.Items); math.Abs(got-0.1) > 0.001 {
			t.Errorf("window %d: sampled %d of %d = %.4f, want 0.100 ± 1 %%", i+2, w.Sampled, w.Items, got)
		}
		bound += w.Overall.Bound / float64(len(windows)-2)
	}
	// The same windows' mean bound at commit 9cc0368, where every stratum
	// got budget/3 slots and the 1 % stratum left two thirds of its empty
	// (Sampled/Items 0.0767).
	const equalShare = 93102
	if bound >= equalShare {
		t.Errorf("mean bound %.0f is not below equal share's %d", bound, equalShare)
	}
}
