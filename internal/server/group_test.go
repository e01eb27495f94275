package server

import (
	"hash/fnv"
	"runtime"
	"testing"
	"time"

	"streamapprox/internal/broker"
	"streamapprox/internal/stream"
)

// These tests pin sampling groups to the ungrouped plane: whatever joins,
// leaves, stalls, restarts or idles, every query served every window once,
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
// group's first member leaves each group's sampler sampling for the
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

// (b) A group is a sampler, not a worker: registering queries whose group
// keys are new, a fixed fraction or a target error, starts no goroutine on
// any partition once the loops run.
func TestNewGroupAddsNoGoroutine(t *testing.T) {
	bk := broker.New()
	if err := bk.CreateTopic("in", 4); err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Cluster: bk, Topic: "in", PollBackoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	registerAll(t, s, groupSpecs(1))
	waitGauges(t, s, 1, 1)
	before := runtime.NumGoroutine()
	specs := []Spec{
		{Kind: "sum", Window: 2 * time.Second, Slide: time.Second, Fraction: 0.3},
		{Kind: "sum", Window: 2 * time.Second, Slide: 2 * time.Second, Fraction: 0.5},
		{Kind: "mean", Window: 2 * time.Second, Slide: time.Second, Fraction: 0.5, TargetError: 0.05},
	}
	registerAll(t, s, specs)
	waitGauges(t, s, 4, 4)
	after := runtime.NumGoroutine()
	for stop := time.Now().Add(2 * time.Second); after > before && time.Now().Before(stop); after = runtime.NumGoroutine() {
		time.Sleep(10 * time.Millisecond)
	}
	if after > before {
		t.Errorf("%d goroutines after registering %d queries with new group keys on 4 partitions, %d before", after, len(specs), before)
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
// while its peer keeps advancing: its idle markers advance its grouped
// shards to the plane's mark, every window still merges, and nothing is
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

// quietCluster holds partition 0's fetches until its gate opens: a
// partition that never polls cannot idle, so no marker reaches it before
// its groups are formed.
type quietCluster struct{ *gatedCluster }

func (q quietCluster) FetchBatch(topic string, partition int, offset int64, max int, b *stream.EventBatch) (int, error) {
	if partition == 0 {
		return q.gatedCluster.FetchBatch(topic, partition, offset, max, b)
	}
	return q.Cluster.FetchBatch(topic, partition, offset, max, b)
}

// (g) Two queries share the group on an empty partition while the second
// one's shard on the loaded partition is held behind the plane, so their
// jobs' watermarks differ when the empty partition's idle marker fires:
// the marker carries the plane's one mark, the group's sampler advances
// once for both and nobody leaves the group. Every window is served once
// and no record is late.
func TestIdleMarkerNeverSplitsAGroup(t *testing.T) {
	bk := broker.New()
	if err := bk.CreateTopic("in", 2); err != nil {
		t.Fatal(err)
	}
	partOf := func(key string) int {
		h := fnv.New32a()
		_, _ = h.Write([]byte(key))
		return int(h.Sum32() % 2)
	}
	var events []stream.Event
	for _, e := range makeEvents(61, 8000) {
		if partOf(e.Stratum) == 1 {
			events = append(events, e)
		}
	}
	if _, err := produceEvents(bk, "in", events); err != nil {
		t.Fatal(err)
	}
	bc := newBacklogCluster(bk)
	quiet := quietCluster{newGatedCluster(bc)}
	s, err := New(Config{Cluster: quiet, Topic: "in", PollBackoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	defer quiet.open()
	specs := groupSpecs(2)
	jobs := registerAll(t, s, specs[:1])
	waitJobRecords(t, jobs[0], int64(len(events)), 10*time.Second)
	bc.hold()
	released := false
	defer func() {
		if !released {
			bc.release()
		}
	}()
	jobs = append(jobs, registerAll(t, s, specs[1:])...)
	empty := s.ing.parts[0]
	if got := empty.samplersGauge.Value(); got != 1 {
		t.Fatalf("empty partition runs %v samplers before its marker, want its group's 1", got)
	}
	quiet.open()
	first := jobs[0].shards[0]
	for stop := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		if !watermarkOf(first).IsZero() {
			break
		}
		if time.Now().After(stop) {
			t.Fatal("no idle marker reached the empty partition")
		}
	}
	if got := empty.samplersGauge.Value(); got != 1 {
		t.Errorf("empty partition runs %v samplers after its marker, want its group's 1", got)
	}
	bc.release()
	released = true
	for _, j := range jobs {
		waitJobRecords(t, j, int64(len(events)), 10*time.Second)
		checkWindowsOnce(t, j, events)
		for _, sh := range j.shards {
			if late := sh.lateMetric.Value(); late != 0 {
				t.Errorf("query %s shard %d dropped %v late events", j.id, sh.idx, late)
			}
		}
	}
	if got := empty.samplersGauge.Value(); got != 1 {
		t.Errorf("empty partition runs %v samplers at the end, want its group's 1", got)
	}
}
