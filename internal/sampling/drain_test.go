package sampling

import (
	"reflect"
	"slices"
	"testing"

	"streamapprox/internal/stream"
	"streamapprox/internal/xrand"
)

// drainCopy ends the interval through Drain, copying what it is shown.
func drainCopy(o *OASRS) *Sample {
	out := &Sample{}
	o.Drain(func(s *Sample) {
		for _, st := range s.Strata {
			st.Values = slices.Clone(st.Values)
			out.Strata = append(out.Strata, st)
		}
	})
	return out
}

// interval offers n events of each stratum in turn, through AddBatch.
func interval(o *OASRS, n int, strata ...string) {
	b := stream.GetEventBatch()
	defer b.Release()
	for _, key := range strata {
		id := b.Intern(key)
		for i := 0; i < n; i++ {
			b.Append(id, float64(i), int64(i))
		}
	}
	o.AddBatch(b, 0, b.Len())
}

// Recycled reservoirs must behave as fresh ones: the capacity follows
// each interval's budget down and up, the previous interval's stratum
// count still sizes the first arrivals, a stratum that sits an interval
// out comes back, and the values are exactly those a sampler that
// reallocates every interval (Finish, on an identically seeded twin)
// returns.
func TestDrainRecyclesReservoirs(t *testing.T) {
	drained, finished := NewOASRS(90, nil, xrand.New(3)), NewOASRS(90, nil, xrand.New(3))
	steps := []struct {
		budget int
		strata []string
		sizes  map[string]int // sample size per stratum, 500 offered each
	}{
		{90, []string{"a", "b", "c"}, map[string]int{"a": 90, "b": 45, "c": 30}}, // sized as strata appear
		{30, []string{"a", "b", "c"}, map[string]int{"a": 10, "b": 10, "c": 10}}, // shrinks; three strata expected
		{30, []string{"c", "a"}, map[string]int{"a": 10, "c": 10}},               // b vanishes; still sized for three
		{600, []string{"b", "a", "c"}, map[string]int{"a": 300, "b": 300, "c": 200}},
		{6, []string{"a", "b", "c"}, map[string]int{"a": 2, "b": 2, "c": 2}},
	}
	for i, step := range steps {
		drained.SetBudget(step.budget)
		finished.SetBudget(step.budget)
		interval(drained, 500, step.strata...)
		interval(finished, 500, step.strata...)
		got, want := drainCopy(drained), finished.Finish()
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("interval %d: Drain and Finish disagree:\n%+v\n%+v", i, got, want)
		}
		if len(got.Strata) != len(step.sizes) {
			t.Fatalf("interval %d: %d strata, want %d", i, len(got.Strata), len(step.sizes))
		}
		for _, st := range got.Strata {
			if len(st.Values) != step.sizes[st.Stratum] || st.Count != 500 {
				t.Errorf("interval %d stratum %s: %d of %d sampled, want %d of 500",
					i, st.Stratum, len(st.Values), st.Count, step.sizes[st.Stratum])
			}
			if want := weightFor(500, step.sizes[st.Stratum]); st.Weight != want {
				t.Errorf("interval %d stratum %s: weight %v, want %v", i, st.Stratum, st.Weight, want)
			}
		}
	}
}

// Between intervals Drain allocates nothing once the reservoirs exist.
func TestDrainSteadyStateAllocatesNothing(t *testing.T) {
	o := NewOASRS(300, nil, xrand.New(4))
	b := stream.GetEventBatch()
	defer b.Release()
	for _, key := range []string{"a", "b", "c"} {
		id := b.Intern(key)
		for i := 0; i < 1000; i++ {
			b.Append(id, float64(i), int64(i))
		}
	}
	rows := 0
	run := func() {
		o.AddBatch(b, 0, b.Len())
		o.Drain(func(s *Sample) { rows += s.SampledCount() })
	}
	run()
	run() // the second interval sizes all three reservoirs at budget/3
	if allocs := testing.AllocsPerRun(10, run); allocs != 0 {
		t.Errorf("%.0f allocations per drained interval", allocs)
	}
	if rows != 550+12*300 { // 300+150+100 as strata first appear, then 3×100 per interval
		t.Errorf("sampled %d rows", rows)
	}
}
