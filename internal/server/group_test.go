package server

import (
	"hash/fnv"
	"testing"
	"time"

	"streamapprox/internal/broker"
	"streamapprox/internal/stream"
)

// These tests pin sampling groups to the ungrouped plane: whatever joins,
// leaves, sheds, restarts or idles, every query served every window once,
// each holding exactly the items inside it.

// groupSpecs are n queries of different kinds sharing one sampling-group
// key: a 1 s slide at fraction 0.5.
func groupSpecs(n int) []Spec {
	kinds := []string{"sum", "count", "mean", "groupby-sum"}
	var out []Spec
	for i := 0; i < n; i++ {
		out = append(out, Spec{Kind: kinds[i%len(kinds)], Window: time.Duration(2+i%2) * time.Second,
			Slide: time.Second, Fraction: 0.5, Seed: uint64(3*i + 1)})
	}
	return out
}

func registerAll(t *testing.T, s *Server, specs []Spec) []*job {
	t.Helper()
	var jobs []*job
	for _, sp := range specs {
		id, err := s.Register(sp)
		if err != nil {
			t.Fatal(err)
		}
		j, _ := s.job(id)
		jobs = append(jobs, j)
	}
	return jobs
}

// waitGauges blocks until every partition reports the given attached
// queries and samplers.
func waitGauges(t *testing.T, s *Server, queries, samplers float64) {
	t.Helper()
	stop := time.Now().Add(10 * time.Second)
	for {
		ok := true
		for _, pi := range s.ing.parts {
			ok = ok && pi.queriesGauge.Value() == queries && pi.samplersGauge.Value() == samplers
		}
		if ok {
			return
		}
		if time.Now().After(stop) {
			for _, pi := range s.ing.parts {
				t.Errorf("partition %d: %v queries / %v samplers", pi.idx, pi.queriesGauge.Value(), pi.samplersGauge.Value())
			}
			t.Fatalf("want %v queries / %v samplers on every partition", queries, samplers)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// checkWindowsOnce waits until the query has served every window that
// ends a slide before the last event, and asserts each was served once
// with exactly the items inside it: none missing, none duplicated.
func checkWindowsOnce(t *testing.T, j *job, events []stream.Event) {
	t.Helper()
	ones := make([]stream.Event, len(events))
	for i, e := range events {
		e.Value = 1
		ones[i] = e
	}
	exact := exactWindowSums(ones, j.spec.Window, j.spec.Slide)
	last := events[len(events)-1].Time
	want := 0
	for start := range exact {
		if !start.Add(j.spec.Window + j.spec.Slide).After(last) {
			want++
		}
	}
	stop := time.Now().Add(15 * time.Second)
	for {
		served := map[time.Time]int{}
		got := 0
		for _, r := range j.resultsSince(-1) {
			served[r.Start]++
			if !r.Start.Add(j.spec.Window + j.spec.Slide).After(last) {
				got++
			}
		}
		if got >= want {
			for _, r := range j.resultsSince(-1) {
				if served[r.Start] != 1 {
					t.Errorf("query %s window %v served %d times", j.id, r.Start, served[r.Start])
				}
				if float64(r.Items) != exact[r.Start] {
					t.Errorf("query %s window %v: %d items, want %v", j.id, r.Start, r.Items, exact[r.Start])
				}
			}
			return
		}
		if time.Now().After(stop) {
			t.Fatalf("query %s served %d of %d windows", j.id, got, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// (a) Deleting, mid-stream, the query whose shards are every partition's
// first sharing member leaves each group's sampler sampling for the
// others: every other query serves every window once.
func TestGroupFirstMemberDeleteServesEveryWindowOnce(t *testing.T) {
	bk := broker.New()
	if err := bk.CreateTopic("in", 2); err != nil {
		t.Fatal(err)
	}
	events := makeEvents(51, 20000)
	s, err := New(Config{Cluster: bk, Topic: "in", PollBackoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	jobs := registerAll(t, s, groupSpecs(3))
	waitGauges(t, s, 3, 1)
	for i := 0; i < 10; i++ {
		if _, err := produceEvents(bk, "in", events[i*2000:(i+1)*2000]); err != nil {
			t.Fatal(err)
		}
		if i == 4 {
			waitJobRecords(t, jobs[0], 8000, 10*time.Second)
			if err := s.Deregister(jobs[0].id); err != nil {
				t.Fatal(err)
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	waitGauges(t, s, 2, 1)
	for _, j := range jobs[1:] {
		waitJobRecords(t, j, int64(len(events)), 15*time.Second)
		checkWindowsOnce(t, j, events)
	}
}

// (b) A depth-1 queue over a backlog sheds whole groups: every member
// replays through its own catch-up, re-splices once, and the group forms
// again.
func TestGroupShedResplicesEveryMember(t *testing.T) {
	bk := broker.New()
	if err := bk.CreateTopic("in", 2); err != nil {
		t.Fatal(err)
	}
	events := makeSwappedEvents(53, 64000)
	gc := newGatedCluster(bk)
	s, err := New(Config{Cluster: gc, Topic: "in", PollBackoff: time.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	defer gc.open()
	s.ing.queueDepth = 1 // before the first Register: every queue is depth 1
	jobs := registerAll(t, s, groupSpecs(3))
	waitGauges(t, s, 3, 1)
	if _, err := produceEvents(bk, "in", events); err != nil {
		t.Fatal(err)
	}
	holdGroupsUntilShed(t, s, gc)
	for _, j := range jobs {
		waitJobRecords(t, j, int64(len(events)), 30*time.Second)
	}
	waitGauges(t, s, 3, 1)
	for _, j := range jobs {
		if n := shardRecordsTotal(s, j); n != int64(len(events)) {
			t.Errorf("query %s: saproxd_shard_records_total = %d, want %d", j.id, n, len(events))
		}
		var shed float64
		for _, sh := range j.shards {
			shed += sh.shed.Value()
		}
		if shed == 0 {
			t.Errorf("query %s was never shed; overflow path untested", j.id)
		}
		checkWindowsOnce(t, j, events)
	}
}

// (e) Queries whose fractions move — adaptive under a target error —
// never share a sampler.
func TestUnshareableQueriesNeverGroup(t *testing.T) {
	for name, tc := range map[string]struct {
		target float64
	}{"target error": {0.05}} {
		t.Run(name, func(t *testing.T) {
			bk := broker.New()
			if err := bk.CreateTopic("in", 2); err != nil {
				t.Fatal(err)
			}
			events := makeEvents(55, 6000)
			s, err := New(Config{Cluster: bk, Topic: "in", PollBackoff: time.Millisecond})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			specs := groupSpecs(2)
			for i := range specs {
				specs[i].TargetError = tc.target
			}
			jobs := registerAll(t, s, specs)
			if _, err := produceEvents(bk, "in", events); err != nil {
				t.Fatal(err)
			}
			for _, j := range jobs {
				waitJobRecords(t, j, int64(len(events)), 10*time.Second)
				checkWindowsOnce(t, j, events)
			}
			waitGauges(t, s, 2, 2)
		})
	}
}

// (f) A partition whose strata fall silent idles past idleAdvanceFloor
// while its peer keeps advancing: its grouped shards are punctuated up
// to their jobs' watermarks, every window still merges, and nothing is
// dropped as late.
func TestGroupOnSparsePartitionMergesAndDropsNothing(t *testing.T) {
	bk := broker.New()
	if err := bk.CreateTopic("in", 2); err != nil {
		t.Fatal(err)
	}
	partOf := func(key string) int {
		h := fnv.New32a()
		_, _ = h.Write([]byte(key))
		return int(h.Sum32() % 2)
	}
	all := makeEvents(57, 12000)
	var events []stream.Event
	for i, e := range all {
		if i < 4000 || partOf(e.Stratum) == 0 {
			events = append(events, e)
		}
	}
	s, err := New(Config{Cluster: bk, Topic: "in", PollBackoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	jobs := registerAll(t, s, groupSpecs(3))
	waitGauges(t, s, 3, 1)
	for from := 0; from < len(events); {
		to := min(from+2000, len(events))
		if _, err := produceEvents(bk, "in", events[from:to]); err != nil {
			t.Fatal(err)
		}
		from = to
		time.Sleep(2 * idleAdvanceFloor)
	}
	for _, j := range jobs {
		waitJobRecords(t, j, int64(len(events)), 10*time.Second)
		checkWindowsOnce(t, j, events)
		for _, sh := range j.shards {
			if late := sh.lateMetric.Value(); late != 0 {
				t.Errorf("query %s shard %d dropped %v late events", j.id, sh.idx, late)
			}
		}
	}
}
