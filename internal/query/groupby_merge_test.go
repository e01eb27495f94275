package query

import (
	"math"
	"testing"

	"streamapprox/internal/estimate"
	"streamapprox/internal/sampling"
)

// When a window combines several per-batch sub-samples, the same stratum
// appears in multiple entries; GroupBy must merge them.
func TestGroupByMergesDuplicateStrata(t *testing.T) {
	s := &sampling.Sample{Strata: []sampling.StratumSample{
		{
			Stratum: "tcp",
			Values:  []float64{10},
			Count:   2, Weight: 2,
		},
		{
			Stratum: "tcp",
			Values:  []float64{30},
			Count:   3, Weight: 3,
		},
		{
			Stratum: "udp",
			Values:  []float64{5},
			Count:   1, Weight: 1,
		},
	}}
	res := evaluate(NewGroupBySum(estimate.Conf95), s)
	if len(res.Groups) != 2 {
		t.Fatalf("groups = %v", res.Groups)
	}
	// tcp sum = 10*2 + 30*3 = 110.
	if got := res.Groups["tcp"].Value; got != 110 {
		t.Errorf("tcp sum = %v, want 110", got)
	}
	counts := evaluate(NewGroupByCount(estimate.Conf95), s)
	if got := counts.Groups["tcp"].Value; got != 5 {
		t.Errorf("tcp count = %v, want 5", got)
	}
	means := evaluate(NewGroupByMean(estimate.Conf95), s)
	// tcp mean = weighted by entry counts: (2/5)*10 + (3/5)*30 = 22.
	if got := means.Groups["tcp"].Value; math.Abs(got-22) > 1e-9 {
		t.Errorf("tcp mean = %v, want 22", got)
	}
}
