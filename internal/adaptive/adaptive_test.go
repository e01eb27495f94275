package adaptive

import (
	"math"
	"testing"
	"testing/quick"
)

func TestGrowOnHighError(t *testing.T) {
	c := NewController(0.01, 0.2)
	next := c.Observe(0.05) // 5x over target
	if next <= 0.2 {
		t.Errorf("fraction did not grow: %v", next)
	}
}

func TestShrinkOnLowError(t *testing.T) {
	c := NewController(0.01, 0.8)
	next := c.Observe(0.001) // far below target/2
	if next >= 0.8 {
		t.Errorf("fraction did not shrink: %v", next)
	}
}

func TestDeadBandHolds(t *testing.T) {
	c := NewController(0.01, 0.5)
	// Error between target/2 and target: hold steady.
	if next := c.Observe(0.008); next != 0.5 {
		t.Errorf("fraction changed inside dead band: %v", next)
	}
}

func TestBoundsRespected(t *testing.T) {
	c := NewController(0.01, 0.9)
	for i := 0; i < 20; i++ {
		c.Observe(1.0) // always over target
	}
	if c.Fraction() != 1 {
		t.Errorf("fraction under constant over-target error: %v, want max 1", c.Fraction())
	}
	for i := 0; i < 100; i++ {
		c.Observe(0)
	}
	if c.Fraction() != 0.01 {
		t.Errorf("fraction under constant zero error: %v, want min 0.01", c.Fraction())
	}
}

func TestInitialFractionClamped(t *testing.T) {
	c := NewController(0.01, 5.0)
	if c.Fraction() != 1.0 {
		t.Errorf("initial fraction = %v, want 1.0", c.Fraction())
	}
}

func TestNegativeErrorIgnored(t *testing.T) {
	c := NewController(0.01, 0.5)
	if next := c.Observe(-1); next != 0.5 {
		t.Errorf("negative error changed fraction: %v", next)
	}
}

// TestFixedSteps pins the controller's constants: grow by 1.5 over the
// target, shrink by 0.05 under half of it, hold in between.
func TestFixedSteps(t *testing.T) {
	for _, tc := range []struct {
		from, err, want float64
	}{
		{0.2, 0.05, 0.3},    // over target
		{0.8, 0.004, 0.75},  // under half the target
		{0.5, 0.006, 0.5},   // dead band
		{0.5, 0.01, 0.5},    // at the target
		{0.5, 0.005, 0.5},   // at half the target
		{0.8, 0.02, 1},      // grown past the max
		{0.04, 0.001, 0.01}, // shrunk past the min
	} {
		c := NewController(0.01, tc.from)
		if got := c.Observe(tc.err); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("from %v at error %v: got %v, want %v", tc.from, tc.err, got, tc.want)
		}
	}
}

// Property: the fraction always stays within bounds regardless of the
// error sequence.
func TestFractionAlwaysBounded(t *testing.T) {
	if err := quick.Check(func(errs []float64) bool {
		c := NewController(0.01, 0.5)
		for _, e := range errs {
			f := c.Observe(e)
			if f < 0.01 || f > 1.0 {
				return false
			}
		}
		return true
	}, nil); err != nil {
		t.Error(err)
	}
}

// Convergence: a plant whose error is inversely proportional to the
// fraction must settle near the target.
func TestConvergesOnStationaryPlant(t *testing.T) {
	const target = 0.01
	c := NewController(target, 0.05)
	plant := func(fraction float64) float64 {
		return 0.005 / fraction // error 0.5% at fraction 1.0, 10% at 0.05
	}
	for i := 0; i < 50; i++ {
		c.Observe(plant(c.Fraction()))
	}
	finalErr := plant(c.Fraction())
	if finalErr > target*1.5 {
		t.Errorf("did not converge: fraction=%v error=%v target=%v",
			c.Fraction(), finalErr, target)
	}
}
