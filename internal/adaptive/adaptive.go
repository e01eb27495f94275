// Package adaptive implements the feedback mechanism of §4.2.1: "In cases
// where the error bound is larger than the specified target, an adaptive
// feedback mechanism is activated to increase the sample size in the
// sampling module. This way, we achieve higher accuracy in the subsequent
// epochs."
//
// Controller is a bounded multiplicative-increase / additive-decrease
// loop over the sampling fraction: when the observed relative error bound
// exceeds the target, the fraction grows by a factor of 1.5; when it is
// comfortably below target (under half of it), the fraction decays by
// 0.05 to reclaim throughput. The fraction stays within [0.01, 1]. A
// Session with a TargetError runs one, and so does a served query with a
// target_error, for all its shards.
package adaptive

// The controller's fixed tunables.
const (
	minFraction = 0.01
	maxFraction = 1.0
	growFactor  = 1.5
	shrinkStep  = 0.05
	slack       = 0.5 // shrink when the error is under slack × target
)

// Controller re-tunes the sampling fraction from observed error bounds.
// The zero value is not usable; construct with NewController.
type Controller struct {
	target   float64
	fraction float64
}

// NewController returns a controller targeting the given relative error
// bound (e.g. 0.01 for 1%), starting at the initial sampling fraction.
func NewController(targetError, initialFraction float64) *Controller {
	return &Controller{target: targetError, fraction: clamp(initialFraction)}
}

func clamp(f float64) float64 {
	if f < minFraction {
		return minFraction
	}
	if f > maxFraction {
		return maxFraction
	}
	return f
}

// Fraction returns the current sampling fraction.
func (c *Controller) Fraction() float64 { return c.fraction }

// Observe feeds the relative error bound of the last interval
// (bound/|value|) and returns the fraction to use next interval.
func (c *Controller) Observe(relativeError float64) float64 {
	if relativeError < 0 {
		return c.fraction
	}
	switch {
	case relativeError > c.target:
		c.fraction = clamp(c.fraction * growFactor)
	case relativeError < c.target*slack:
		c.fraction = clamp(c.fraction - shrinkStep)
	}
	return c.fraction
}
