package main

import (
	"testing"
	"time"
)

func TestSupportedTail(t *testing.T) {
	cases := []struct {
		n    int
		want float64
		at   float64
	}{
		{50, 0.99, 0.5},    // 50 samples: not even p90 has ten beyond it
		{100, 0.99, 0.90},  // exactly ten beyond p90
		{199, 0.99, 0.90},  // p95 would leave 9.95
		{200, 0.99, 0.95},  // ten beyond p95
		{999, 0.99, 0.95},  // p99 would leave 9.99
		{1000, 0.99, 0.99}, // ten beyond p99
		{1000, 0.95, 0.95}, // never above what was asked for
		{20000, 0.99, 0.99},
	}
	for _, c := range cases {
		if got := supportedTail(c.n, c.want); got != c.at {
			t.Errorf("supportedTail(%d, %g) = %g, want %g", c.n, c.want, got, c.at)
		}
	}
	v := make([]float64, 300)
	for i := range v {
		v[i] = float64(i + 1)
	}
	tm := summarize(v, 0.99)
	if tm.N != 300 || tm.Median != 150 || tm.TailAt != 0.95 || tm.Tail != 285 {
		t.Errorf("summarize = %+v", tm)
	}
}

// TestMedianSliceRate checks that one stalled slice out of ten moves
// neither the median slice rate nor the median slice CPU cost, where the
// whole-run figures would both be off by a third; and that slices closed
// by one result share a mark instead of yielding an infinite rate.
func TestMedianSliceRate(t *testing.T) {
	t0 := time.Unix(0, 0)
	marks := []mark{{at: t0}}
	for k := 1; k <= 10; k++ {
		d := time.Second
		if k == 4 {
			d = 6 * time.Second // a co-tenant burst, billed to the process as CPU
		}
		last := marks[len(marks)-1]
		marks = append(marks, mark{at: last.at.Add(d), cpu: last.cpu + 2*d, slice: k})
	}
	res := &result{metrics: make(map[string]float64)}
	sliceStats(res, marks, 1000, false)
	if got := res.metrics["items_per_s"]; got != 1000 {
		t.Errorf("median slice rate %v, want 1000", got)
	}
	if got := res.metrics["cpu_ns_per_item"]; got != 2e6 {
		t.Errorf("median slice CPU %v ns/item, want 2e6", got)
	}
	if whole := 10000 / marks[10].at.Sub(t0).Seconds(); whole > 700 {
		t.Errorf("whole-run rate %v: the burst should have dragged it down", whole)
	}

	shared := []mark{{at: t0}, {at: t0.Add(time.Second), cpu: time.Second, slice: 3}, {at: t0.Add(2 * time.Second), cpu: 2 * time.Second, slice: 4}}
	res = &result{metrics: make(map[string]float64)}
	sliceStats(res, shared, 1000, false)
	if got := res.metrics["items_per_s"]; got != 1000 && got != 3000 {
		t.Errorf("shared mark: median slice rate %v", got)
	}
}
