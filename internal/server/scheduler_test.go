package server

import (
	"strings"
	"testing"
	"time"

	"streamapprox/internal/broker"
	"streamapprox/internal/metrics"
)

// currentFraction reads a query's live sampling fraction from its
// first shard session.
func currentFraction(j *job) float64 {
	sh := j.shards[0]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.sess.Fraction()
}

// jobSampled sums a query's sampled items across shards.
func jobSampled(j *job) int64 {
	var n int64
	for _, sh := range j.shards {
		n += sh.sampled.Load()
	}
	return n
}

// TestSchedulerEnforcesGlobalBudget runs two greedy queries under a
// global sample budget far below their combined demand: the scheduler
// must cut their fractions well below the requested 0.8, and the
// realized sampling ratio must land far under the unscheduled one.
func TestSchedulerEnforcesGlobalBudget(t *testing.T) {
	bk := broker.New()
	if err := bk.CreateTopic("in", 2); err != nil {
		t.Fatal(err)
	}
	events := makeEvents(41, 30000) // 30s of data
	s, err := New(Config{
		Cluster:       bk,
		Topic:         "in",
		PollBackoff:   time.Millisecond,
		GlobalBudget:  2000, // items/s shared by all queries — far below demand
		ScheduleEvery: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	var jobs []*job
	for i := 0; i < 2; i++ {
		id, err := s.Register(Spec{Kind: "sum", Window: 2 * time.Second, Slide: time.Second,
			Fraction: 0.8, Seed: uint64(i + 1)})
		if err != nil {
			t.Fatal(err)
		}
		j, _ := s.job(id)
		jobs = append(jobs, j)
	}
	// Throttle the feed across ~30 control intervals so the scheduler
	// keeps seeing live demand against the budget while data flows.
	go func() {
		for chunk := 0; chunk < len(events); chunk += 1000 {
			end := chunk + 1000
			if end > len(events) {
				end = len(events)
			}
			_, _ = produceEvents(bk, "in", events[chunk:end])
			time.Sleep(15 * time.Millisecond)
		}
	}()

	deadline := time.Now().Add(30 * time.Second)
	squeezed := false
	for {
		done := true
		for _, j := range jobs {
			if jobRecords(j) < int64(len(events)) {
				done = false
			}
			if currentFraction(j) < 0.2 {
				squeezed = true
			}
		}
		if done && squeezed {
			break
		}
		if time.Now().After(deadline) {
			for _, j := range jobs {
				t.Logf("query %s: records %d, fraction %v", j.id, jobRecords(j), currentFraction(j))
			}
			t.Fatal("budget scheduler never squeezed the fractions below 0.2")
		}
		time.Sleep(2 * time.Millisecond)
	}

	// Unscheduled, every window would sample ~0.8 of its items. Under
	// the squeeze, all but the first couple of windows sample at the
	// granted sliver, so the aggregate window-level ratio collapses.
	var items, sampled int64
	for _, j := range jobs {
		for _, r := range j.resultsSince(-1) {
			items += r.Items
			sampled += int64(r.Sampled)
		}
	}
	if items == 0 || sampled == 0 {
		t.Fatalf("items %d, sampled %d — nothing merged", items, sampled)
	}
	if ratio := float64(sampled) / float64(items); ratio > 0.5 {
		t.Errorf("aggregate window sampling ratio %.3f, want well under the requested 0.8", ratio)
	}

	// The allocation surface shows what the scheduler decided. Read after
	// Close, so demand and grant come from the same control interval: the
	// grant never exceeds the demand, nor the bucket's burst of two
	// intervals' budget, and every fraction is a clamped grant.
	s.Close()
	sc, err := metrics.ParseText(strings.NewReader(s.Registry().Render()))
	if err != nil {
		t.Fatal(err)
	}
	budget, _ := sc.Value("saproxd_sched_budget_items_per_s", nil)
	demand, _ := sc.Value("saproxd_sched_demand_items", nil)
	granted, ok := sc.Value("saproxd_sched_granted_items", nil)
	if burst := 2 * budget * (20 * time.Millisecond).Seconds(); budget != 2000 || !ok || granted > demand || granted > burst {
		t.Errorf("budget %v: granted %v items of a demand of %v, want at most both and %v", budget, granted, demand, burst)
	}
	for _, j := range jobs {
		if f, ok := sc.Value("saproxd_sched_fraction", metrics.Labels{"query": j.id}); !ok || f < minSchedFraction || f > 1 {
			t.Errorf("query %s: saproxd_sched_fraction = %v (present %v), want in [%v, 1]", j.id, f, ok, minSchedFraction)
		}
	}
}

// TestGrantFraction pins the allocation algebra deterministically:
// weights must bias the split only while the budget binds, contended
// shares must follow weighted demand, and no query is granted above
// its desired fraction or below the survival floor.
func TestGrantFraction(t *testing.T) {
	const delta = 10000.0
	// Uncontended (granted == total): weight must not matter.
	for _, w := range []float64{0.5, 1, 4} {
		if f := grantFraction(0.5, w, delta, 0.5*delta, 5000, 5000, w*0.5*delta); f != 0.5 {
			t.Errorf("uncontended weight %v: fraction %v, want the desired 0.5", w, f)
		}
	}
	// Contended, equal weights: two identical queries split the grant
	// evenly — each gets (granted/2)/delta.
	total := 2 * 0.5 * delta
	if f := grantFraction(0.5, 1, delta, 0.5*delta, total/2, total, total); f != 0.25 {
		t.Errorf("contended even split: fraction %v, want 0.25", f)
	}
	// Contended, weight 3 vs 1: the heavy query gets 3/4 of the grant,
	// capped at its desired fraction; the light one gets 1/4.
	granted := total / 2
	wtotal := 3*0.5*delta + 1*0.5*delta
	heavy := grantFraction(0.5, 3, delta, 0.5*delta, granted, total, wtotal)
	light := grantFraction(0.5, 1, delta, 0.5*delta, granted, total, wtotal)
	if want := 0.375; heavy != want {
		t.Errorf("heavy query fraction %v, want %v", heavy, want)
	}
	if want := 0.125; light != want {
		t.Errorf("light query fraction %v, want %v", light, want)
	}
	// A grant share above desired is capped at desired.
	if f := grantFraction(0.2, 100, delta, 0.2*delta, granted, total, wtotal); f != 0.2 {
		t.Errorf("over-weighted query fraction %v, want cap at desired 0.2", f)
	}
	// Severe contention never starves a query below the floor.
	if f := grantFraction(0.5, 1, delta, 0.5*delta, 1, total, total); f != minSchedFraction {
		t.Errorf("starved query fraction %v, want floor %v", f, minSchedFraction)
	}
	// Idle queries (no arrivals) keep their desired fraction.
	if f := grantFraction(0.7, 1, 0, 0, granted, total, wtotal); f != 0.7 {
		t.Errorf("idle query fraction %v, want desired 0.7", f)
	}
}

// TestSchedulerGrowsStarvedQuery checks the feedback direction: with a
// generous budget and a tight error target, the scheduler must grow a
// query's fraction above its initial operating point when the observed
// error exceeds the target (the §4.2.1 loop lifted to query level).
func TestSchedulerGrowsStarvedQuery(t *testing.T) {
	bk := broker.New()
	if err := bk.CreateTopic("in", 2); err != nil {
		t.Fatal(err)
	}
	events := makeEvents(43, 30000)
	if _, err := produceEvents(bk, "in", events); err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{
		Cluster:       bk,
		Topic:         "in",
		PollBackoff:   time.Millisecond,
		GlobalBudget:  1e9, // effectively unconstrained
		ScheduleEvery: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// A 30% sampling fraction on a noisy sum leaves a real, positive
	// error bound (at very small fractions single-sample strata report
	// a degenerate zero bound); an unreachably tight target then keeps
	// the query-level controller growing.
	id, err := s.Register(Spec{Kind: "sum", Window: 2 * time.Second, Slide: time.Second,
		Fraction: 0.3, TargetError: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	j, _ := s.job(id)
	deadline := time.Now().Add(20 * time.Second)
	for currentFraction(j) <= 0.3 {
		if time.Now().After(deadline) {
			t.Fatalf("fraction stuck at %v despite error above target", currentFraction(j))
		}
		time.Sleep(2 * time.Millisecond)
	}
}
