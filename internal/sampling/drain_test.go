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
// each interval's budget down and up, the previous interval's strata and
// their counts size this one's, a stratum that sits an interval
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
		// a and c overflowed last interval: the plan splits 600 between
		// them, 300 each, where c used to get 600/3 for arriving after b.
		// b was not there to plan for and adds a share on top: 600/2,
		// two strata being what the previous interval saw.
		{600, []string{"b", "a", "c"}, map[string]int{"a": 300, "b": 300, "c": 300}},
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

// A budget set mid-interval redraws the plan: a stratum first seen after
// it is sized from the new budget, one already sampling keeps its size.
func TestSetBudgetMidIntervalRedrawsPlan(t *testing.T) {
	o := NewOASRS(100, nil, xrand.New(8))
	interval(o, 500, "a", "b")
	drainCopy(o)
	interval(o, 500, "a")
	o.SetBudget(10)
	interval(o, 500, "b")
	got := drainCopy(o)
	if a, b := len(got.Strata[0].Values), len(got.Strata[1].Values); a != 50 || b != 5 {
		t.Errorf("sampled %d of a and %d of b, want 100/2 and 10/2", a, b)
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

// planInterval offers counts[i] events of stratum keys[i], stratum by
// stratum in the given order, and ends the interval. It returns each
// stratum's reservoir capacity and the interval's sample size.
func planInterval(o *OASRS, keys []string, counts []int, order []int) (caps []int, sampled int) {
	b := stream.GetEventBatch()
	defer b.Release()
	for _, i := range order {
		id := b.Intern(keys[i])
		for j := 0; j < counts[i]; j++ {
			b.Append(id, float64(j), int64(j))
		}
	}
	o.AddBatch(b, 0, b.Len())
	caps = make([]int, len(keys))
	for i, key := range keys {
		caps[i] = o.reservoirs[key].capacity
	}
	o.Drain(func(s *Sample) { sampled = s.SampledCount() })
	return caps, sampled
}

// The plan over random arrival counts and budgets: whatever the skew, no
// stratum is sized below its equal share; when the counts repeat, the
// sample is the budget (less the rounding of one division, or everything
// when the budget covers it), under the budget set between the intervals
// and not the one the counts arrived under; strata that left slots empty
// and then grow can overshoot by those slots and no more; and a stratum
// nobody planned for gets an equal share.
func TestPlanSpendsTheBudget(t *testing.T) {
	rng := xrand.New(71)
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(8)
		keys, counts, total := make([]string, n), make([]int, n), 0
		for i := range counts {
			keys[i] = string(rune('a' + i))
			counts[i] = 1 + rng.Intn([]int{3, 30, 300, 3000}[rng.Intn(4)])
			total += counts[i]
		}
		budget := n + rng.Intn(2*total)
		share := EqualShare{}.StratumSize(budget, n)
		o := NewOASRS(1+rng.Intn(2*total), nil, xrand.New(uint64(trial)))
		planInterval(o, keys, counts, rng.Perm(n))
		o.SetBudget(budget)

		caps, repeat := planInterval(o, keys, counts, rng.Perm(n))
		for i, c := range caps {
			if c < share {
				t.Fatalf("trial %d: counts %v budget %d: stratum %s sized %d, below its share %d", trial, counts, budget, keys[i], c, share)
			}
		}
		if want := min(total, budget); repeat > want || repeat <= want-n {
			t.Fatalf("trial %d: counts %v budget %d: sampled %d (capacities %v)", trial, counts, budget, repeat, caps)
		}

		grown, slack := slices.Clone(counts), 0
		for i, c := range counts {
			if c <= share {
				grown[i], slack = 10*c, slack+share-c
			}
		}
		again, sampled := planInterval(o, keys, grown, rng.Perm(n))
		if !reflect.DeepEqual(again, caps) || sampled > repeat+slack {
			t.Fatalf("trial %d: counts %v → %v budget %d: sampled %d, want at most %d + %d (capacities %v → %v)",
				trial, counts, grown, budget, sampled, repeat, slack, caps, again)
		}

		caps, _ = planInterval(o, append(keys, "stranger"), append(grown, budget), append(rng.Perm(n), n))
		if want := (EqualShare{}).StratumSize(budget, n+1); caps[n] != want {
			t.Fatalf("trial %d: budget %d: unplanned stratum %d sized %d, want %d", trial, budget, n+1, caps[n], want)
		}
	}
}
