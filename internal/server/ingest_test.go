package server

import (
	"fmt"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"streamapprox/internal/broker"
	"streamapprox/internal/metrics"
	"streamapprox/internal/stream"
	"streamapprox/internal/xrand"
)

// countingCluster wraps a Cluster and counts broker fetch operations —
// the cost the shared ingest plane exists to amortize.
type countingCluster struct {
	broker.Cluster
	fetches atomic.Int64
}

func (c *countingCluster) FetchBatch(topic string, partition int, offset int64, max int, b *stream.EventBatch) (int, error) {
	c.fetches.Add(1)
	return c.Cluster.FetchBatch(topic, partition, offset, max, b)
}

// jobRecords sums a query's consumed records across shards.
func jobRecords(j *job) int64 {
	var n int64
	for _, sh := range j.shards {
		n += sh.records.Load()
	}
	return n
}

// waitJobRecords blocks until the query has consumed want records.
func waitJobRecords(t *testing.T, j *job, want int64, deadline time.Duration) {
	t.Helper()
	stop := time.Now().Add(deadline)
	for {
		if n := jobRecords(j); n >= want {
			return
		}
		if time.Now().After(stop) {
			t.Fatalf("query %s consumed %d of %d within %v", j.id, jobRecords(j), want, deadline)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// fetchOpsForQueries runs n identical queries over the same produced
// topic until all have consumed everything, and returns the broker
// fetch-op count at that point.
func fetchOpsForQueries(t *testing.T, n int) int64 {
	t.Helper()
	bk := broker.New()
	if err := bk.CreateTopic("in", 2); err != nil {
		t.Fatal(err)
	}
	events := makeEvents(23, 12000)
	if _, err := produceEvents(bk, "in", events); err != nil {
		t.Fatal(err)
	}
	cc := &countingCluster{Cluster: bk}
	s, err := New(Config{Cluster: cc, Topic: "in", PollBackoff: 2 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var jobs []*job
	for i := 0; i < n; i++ {
		id, err := s.Register(Spec{Kind: "sum", Window: 2 * time.Second, Slide: time.Second,
			Fraction: 0.5, Seed: uint64(i + 1)})
		if err != nil {
			t.Fatal(err)
		}
		j, _ := s.job(id)
		jobs = append(jobs, j)
	}
	for _, j := range jobs {
		waitJobRecords(t, j, int64(len(events)), 20*time.Second)
	}
	return cc.fetches.Load()
}

// TestSharedPlaneAmortizesFetches is the shared plane's property: broker
// fetch work must not scale with the query count. Eight concurrent
// queries must cost a small multiple of one query's fetches (catch-up
// reads and idle-poll timing account for the slack).
func TestSharedPlaneAmortizesFetches(t *testing.T) {
	one := fetchOpsForQueries(t, 1)
	shared := fetchOpsForQueries(t, 8)
	t.Logf("fetch ops: 1 query %d, 8 queries %d", one, shared)
	if shared > 3*one+100 {
		t.Errorf("shared plane fetches scale with queries: 1 query %d, 8 queries %d", one, shared)
	}
}

// makeSwappedEvents is makeEvents with every adjacent pair of events
// sharing a stratum and exchanged in time, so each partition's log — and
// each fetched batch — is out of event-time order within every produce
// batch. A pair is never split: both halves go to one partition, every
// even-length produce leaves every partition's log even, and every fetch
// (the plane's, and a catch-up round clamped to the even plane position)
// is even-sized, so no half arrives behind the watermark and is dropped
// as late.
func makeSwappedEvents(seed uint64, n int) []stream.Event {
	rng := xrand.New(seed)
	base := time.Date(2017, 12, 11, 0, 0, 0, 0, time.UTC)
	events := make([]stream.Event, n)
	for i := range events {
		events[i^1] = stream.Event{
			Stratum: fmt.Sprintf("s%02d", (i/2)%16),
			Value:   rng.Gaussian(100, 15),
			Time:    base.Add(time.Duration(i) * time.Millisecond),
		}
	}
	return events
}

// catchUpInput is one topic a catch-up test replays. Besides its own
// ordered stream each test takes a time-permuted one long enough that
// catching up half of it takes several fetchMax rounds per partition.
type catchUpInput struct {
	name   string
	events []stream.Event
}

// shardRecordsTotal sums saproxd_shard_records_total over a query's
// shards — what /metrics reports the query consumed.
func shardRecordsTotal(s *Server, j *job) int64 {
	var n float64
	for p := range j.shards {
		n += s.reg.Counter("saproxd_shard_records_total", "records consumed per shard",
			metrics.Labels{"query": j.id, "shard": strconv.Itoa(p)}).Value()
	}
	return int64(n)
}

// windowItems maps a query's served windows to their item counts.
func windowItems(j *job) map[time.Time]int64 {
	out := map[time.Time]int64{}
	for _, r := range j.resultsSince(-1) {
		out[r.Start] = r.Items
	}
	return out
}

// TestLateRegistrationCatchesUpAndSplices registers a second query
// after the plane has consumed the backlog: the late query must replay
// the gap through its private catch-up consumer, splice into the live
// plane without loss or duplication, and then follow new records. Item
// counts per window must match the early query's exactly — a duplicate
// or lost record would show up as a diverging count.
func TestLateRegistrationCatchesUpAndSplices(t *testing.T) {
	for _, in := range []catchUpInput{
		{"ordered", makeEvents(31, 16000)},
		{"pair-swapped", makeSwappedEvents(31, 64000)},
	} {
		t.Run(in.name, func(t *testing.T) { lateRegistrationCatchesUp(t, in.events) })
	}
}

func lateRegistrationCatchesUp(t *testing.T, events []stream.Event) {
	bk := broker.New()
	if err := bk.CreateTopic("in", 2); err != nil {
		t.Fatal(err)
	}
	half := len(events) / 2
	if _, err := produceEvents(bk, "in", events[:half]); err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Cluster: bk, Topic: "in", PollBackoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	id1, err := s.Register(Spec{Kind: "sum", Window: 2 * time.Second, Slide: time.Second, Fraction: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	j1, _ := s.job(id1)
	// A same-config peer of another kind: the early queries share one
	// sampler per partition, and the late one joins them.
	peer, err := s.Register(Spec{Kind: "mean", Window: 3 * time.Second, Slide: time.Second, Fraction: 0.5, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	jPeer, _ := s.job(peer)
	waitJobRecords(t, j1, int64(half), 15*time.Second)

	// The plane is now at the end of the backlog; a late query from
	// "earliest" starts entirely behind it.
	id2, err := s.Register(Spec{Kind: "sum", Window: 2 * time.Second, Slide: time.Second,
		Fraction: 0.5, From: "earliest", Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	j2, _ := s.job(id2)
	waitJobRecords(t, j2, int64(half), 15*time.Second)

	// Feed the rest: the late query must receive it via the shared
	// plane after its splice.
	if _, err := produceEvents(bk, "in", events[half:]); err != nil {
		t.Fatal(err)
	}
	waitJobRecords(t, j1, int64(len(events)), 15*time.Second)
	waitJobRecords(t, j2, int64(len(events)), 15*time.Second)
	waitJobRecords(t, jPeer, int64(len(events)), 15*time.Second)
	// (d) The late query, spliced as a private member, follows the group's
	// sampler by the first slide boundary of the new records.
	waitGauges(t, s, 3, 1)
	checkWindowsOnce(t, jPeer, events)
	// Settle, then check exact counts: an over-delivery would overshoot.
	time.Sleep(50 * time.Millisecond)
	if n := jobRecords(j1); n != int64(len(events)) {
		t.Errorf("early query consumed %d records, want exactly %d", n, len(events))
	}
	if n := jobRecords(j2); n != int64(len(events)) {
		t.Errorf("late query consumed %d records, want exactly %d (catch-up lost or duplicated)", n, len(events))
	}
	if n := shardRecordsTotal(s, j2); n != int64(len(events)) {
		t.Errorf("late query's saproxd_shard_records_total = %d, want %d", n, len(events))
	}

	// Per-window item counts must agree between the two queries.
	items1 := windowItems(j1)
	compared := 0
	for start, got := range windowItems(j2) {
		want, ok := items1[start]
		if !ok {
			continue
		}
		compared++
		if got != want {
			t.Errorf("window %v: late query saw %d items, early query %d", start, got, want)
		}
	}
	if compared < 4 {
		t.Fatalf("only %d overlapping windows compared", compared)
	}
}

// TestFromLatestSkipsBacklog attaches a query at the high watermark
// while the plane is still chewing the backlog for an earlier query:
// the late query rides the shared plane but must drop every record
// below its requested start.
func TestFromLatestSkipsBacklog(t *testing.T) {
	bk := broker.New()
	if err := bk.CreateTopic("in", 2); err != nil {
		t.Fatal(err)
	}
	events := makeEvents(37, 12000)
	half := len(events) / 2
	if _, err := produceEvents(bk, "in", events[:half]); err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Cluster: bk, Topic: "in", PollBackoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	id1, err := s.Register(Spec{Kind: "sum", Window: 2 * time.Second, Slide: time.Second, Fraction: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	j1, _ := s.job(id1)
	id2, err := s.Register(Spec{Kind: "count", Window: 2 * time.Second, Slide: time.Second,
		Fraction: 0.5, From: "latest"})
	if err != nil {
		t.Fatal(err)
	}
	j2, _ := s.job(id2)

	if _, err := produceEvents(bk, "in", events[half:]); err != nil {
		t.Fatal(err)
	}
	waitJobRecords(t, j1, int64(len(events)), 15*time.Second)
	waitJobRecords(t, j2, int64(half), 15*time.Second)
	time.Sleep(50 * time.Millisecond)
	if n := jobRecords(j2); n != int64(half) {
		t.Errorf("latest query consumed %d records, want exactly %d (skip leaked backlog)", n, half)
	}
}

// A shard's watermark, its group sampler's, is the newest time of the
// records it applied: with zero-time records at the head of a time-sorted batch
// and the skip-ahead start inside them or past them, with every record
// zero-time, and with none.
func TestShardWatermarkIsSortedBatchLast(t *testing.T) {
	base := time.Date(2017, 12, 11, 0, 0, 0, 0, time.UTC)
	for _, tc := range []struct {
		name               string
		zeros, timed, skip int
	}{
		{"skip inside the zero-time head", 3, 5, 2},
		{"skip past the zero-time head", 3, 5, 4},
		{"every record zero-time", 6, 0, 2},
		{"no record zero-time", 0, 6, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			bk := broker.New()
			if err := bk.CreateTopic("in", 1); err != nil {
				t.Fatal(err)
			}
			s, err := New(Config{Cluster: bk, Topic: "in", PollBackoff: time.Millisecond})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			id, err := s.Register(Spec{Kind: "sum", Window: 2 * time.Second, Slide: time.Second, Fraction: 0.5})
			if err != nil {
				t.Fatal(err)
			}
			j, _ := s.job(id)
			sh := j.shards[0]

			b := stream.GetEventBatch()
			defer b.Release()
			b.Base = 100
			for i := tc.timed - 1; i >= 0; i-- {
				b.AppendEvent(stream.Event{Stratum: "a", Value: 1, Time: base.Add(time.Duration(i) * time.Millisecond)})
			}
			for i := 0; i < tc.zeros; i++ {
				b.AppendEvent(stream.Event{Stratum: "a", Value: 1})
			}
			b.SortByTime()
			want := b.MaxTime(tc.skip, b.Len())
			if tc.timed > 0 && want.IsZero() {
				t.Fatalf("precondition: records %d.. hold no time", tc.skip)
			}

			sh.mu.Lock()
			sh.skipUntil = b.Base + int64(tc.skip)
			sh.mu.Unlock()
			pi := s.ing.parts[0]
			pi.mu.Lock()
			sub := pi.subs[sh]
			pi.mu.Unlock()
			sub.apply(planeDelivery{batch: b, next: b.Base + int64(b.Len())})
			sh.mu.Lock()
			got, records := sh.wm, sh.records.Load()
			sh.mu.Unlock()
			if !got.Equal(want) || records != int64(b.Len()-tc.skip) {
				t.Errorf("watermark %v after %d records, want %v after %d", got, records, want, b.Len()-tc.skip)
			}
		})
	}
}

// TestSlowQuerySheddingNoLossNoDup forces delivery-queue overflows with
// a depth-1 queue over a large backlog: the shed/catch-up/re-splice
// cycle must still deliver every record to every query exactly once,
// and the shed counter must show the path actually ran.
func TestSlowQuerySheddingNoLossNoDup(t *testing.T) {
	for _, in := range []catchUpInput{
		{"ordered", makeEvents(29, 40000)},
		{"pair-swapped", makeSwappedEvents(29, 64000)},
	} {
		t.Run(in.name, func(t *testing.T) { slowQueryShedding(t, in.events) })
	}
}

func slowQueryShedding(t *testing.T, events []stream.Event) {
	bk := broker.New()
	if err := bk.CreateTopic("in", 2); err != nil {
		t.Fatal(err)
	}
	if _, err := produceEvents(bk, "in", events); err != nil {
		t.Fatal(err)
	}
	gc := newGatedCluster(bk)
	s, err := New(Config{Cluster: gc, Topic: "in", PollBackoff: time.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	defer gc.open()
	s.ing.queueDepth = 1 // every second batch overflows while a drainer works
	var jobs []*job
	for i, kind := range []string{"sum", "sum", "sum", "count"} { // one group per partition
		id, err := s.Register(Spec{Kind: kind, Window: 2 * time.Second, Slide: time.Second,
			Fraction: 0.5, Seed: uint64(i + 1)})
		if err != nil {
			t.Fatal(err)
		}
		j, _ := s.job(id)
		jobs = append(jobs, j)
	}
	waitGauges(t, s, 4, 1)
	holdGroupsUntilShed(t, s, gc)
	for _, j := range jobs {
		waitJobRecords(t, j, int64(len(events)), 30*time.Second)
	}
	// Exactly once: consumed counts must not exceed the produced total.
	for _, j := range jobs {
		if n := jobRecords(j); n != int64(len(events)) {
			t.Fatalf("query %s consumed %d of %d records", j.id, n, len(events))
		}
		if n := shardRecordsTotal(s, j); n != int64(len(events)) {
			t.Fatalf("query %s: saproxd_shard_records_total = %d, want %d", j.id, n, len(events))
		}
	}
	// Every query is shed with its group and catches up on its own, so
	// their catch-up rounds cut the log differently — yet each served window must hold exactly
	// the items an always-attached query sees: the events inside it.
	ones := make([]stream.Event, len(events))
	for i, e := range events {
		e.Value = 1
		ones[i] = e
	}
	exact := exactWindowSums(ones, 2*time.Second, time.Second)
	for _, j := range jobs {
		items := windowItems(j)
		if len(items) < 4 {
			t.Fatalf("query %s served only %d windows", j.id, len(items))
		}
		for start, got := range items {
			if float64(got) != exact[start] {
				t.Errorf("query %s window %v: %d items, want %v", j.id, start, got, exact[start])
			}
		}
	}
	// The depth-1 queue over a 40k backlog must actually have shed; a
	// zero here means the test stopped exercising the overflow path.
	var shed float64
	for _, j := range jobs {
		for p := 0; p < 2; p++ {
			labels := metrics.Labels{"query": j.id, "partition": strconv.Itoa(p)}
			shed += s.reg.Counter("saproxd_delivery_shed_total",
				"times the query overflowed its delivery queue and was shed to catch-up", labels).Value()
		}
	}
	if shed == 0 {
		t.Fatal("no delivery-queue shed occurred; overflow path untested")
	}
}

// gatedCluster holds every batch fetch until its gate opens, so a test
// can form sampling groups and take their locks before the plane reads
// a record, and before an empty partition idles long enough to queue
// idle punctuation ahead of the records.
type gatedCluster struct {
	broker.Cluster
	gate chan struct{}
	once sync.Once
}

func newGatedCluster(c broker.Cluster) *gatedCluster {
	return &gatedCluster{Cluster: c, gate: make(chan struct{})}
}

func (g *gatedCluster) open() { g.once.Do(func() { close(g.gate) }) }

func (g *gatedCluster) FetchBatch(topic string, partition int, offset int64, max int, b *stream.EventBatch) (int, error) {
	<-g.gate
	return g.Cluster.FetchBatch(topic, partition, offset, max, b)
}

// holdGroupsUntilShed takes the lock of every sampling group on every
// partition, so no drainer can apply a delivery, opens the gate, and
// lets go once the plane has shed each held group (its depth-1 queue
// overflowed). A queue only overflows while its consumer is slower
// than the plane; holding the lock makes it so.
func holdGroupsUntilShed(t *testing.T, s *Server, gc *gatedCluster) {
	t.Helper()
	held := make([][]*subQueue, len(s.ing.parts))
	for i, pi := range s.ing.parts {
		pi.mu.Lock()
		held[i] = slices.Clone(pi.groups)
		pi.mu.Unlock()
		for _, sub := range held[i] {
			sub.mu.Lock()
		}
	}
	gc.open()
	deadline := time.Now().Add(30 * time.Second)
	unshed := 0
	for i, pi := range s.ing.parts {
		for _, sub := range held[i] {
			for {
				pi.mu.Lock()
				shed := !slices.Contains(pi.groups, sub)
				pi.mu.Unlock()
				if shed || time.Now().After(deadline) {
					if !shed {
						unshed++
					}
					break
				}
				time.Sleep(time.Millisecond)
			}
		}
	}
	for i := range held {
		for _, sub := range held[i] {
			sub.mu.Unlock()
		}
	}
	if unshed > 0 {
		t.Fatalf("%d held groups were never shed", unshed)
	}
}

// TestCatchUpPoolBoundsConcurrency registers several queries against a
// deep backlog with a single-slot catch-up pool: the active-catch-up
// gauge must never exceed the bound, and every query must still finish.
func TestCatchUpPoolBoundsConcurrency(t *testing.T) {
	bk := broker.New()
	if err := bk.CreateTopic("in", 2); err != nil {
		t.Fatal(err)
	}
	events := makeEvents(31, 30000)
	if _, err := produceEvents(bk, "in", events); err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Cluster: bk, Topic: "in", PollBackoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.ing.catchupSem = make(chan struct{}, 1) // a single-slot pool, set before the first Register

	// The first query positions the plane at 0 and starts it moving;
	// the rest then register behind it and must replay through the
	// single-slot catch-up pool.
	var jobs []*job
	for i := 0; i < 5; i++ {
		id, err := s.Register(Spec{Kind: "count", Window: 2 * time.Second, Slide: time.Second,
			Fraction: 0.5, Seed: uint64(i + 1)})
		if err != nil {
			t.Fatal(err)
		}
		j, _ := s.job(id)
		jobs = append(jobs, j)
		if i == 0 {
			waitJobRecords(t, j, 4096, 10*time.Second) // let the plane run ahead
		}
	}
	gauge := s.reg.Gauge("saproxd_catchup_active",
		"late-registration catch-up consumers currently running", nil)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for _, j := range jobs {
			waitJobRecords(t, j, int64(len(events)), 30*time.Second)
		}
	}()
	for {
		select {
		case <-done:
			for _, j := range jobs {
				if n := jobRecords(j); n != int64(len(events)) {
					t.Fatalf("query %s consumed %d of %d", j.id, n, len(events))
				}
			}
			return
		default:
		}
		if v := gauge.Value(); v > 1 {
			t.Fatalf("catch-up pool bound violated: %v active", v)
		}
		time.Sleep(time.Millisecond)
	}
}

// hwmCountingCluster counts high-watermark reads.
type hwmCountingCluster struct {
	broker.Cluster
	hwms atomic.Int64
}

func (c *hwmCountingCluster) HighWatermark(topic string, partition int) (int64, error) {
	c.hwms.Add(1)
	return c.Cluster.HighWatermark(topic, partition)
}

// The partition loop reads the broker's high watermark at most every
// hwmEvery while batches flow — it only feeds the lag gauges — and the
// idle drain check brings all three gauges to zero once the partition is
// consumed, however stale the last in-flow reading was.
func TestLagGaugesSettleWithThrottledHighWatermark(t *testing.T) {
	bk := broker.New()
	if err := bk.CreateTopic("in", 1); err != nil {
		t.Fatal(err)
	}
	events := makeEvents(31, 20*fetchMax)
	if _, err := produceEvents(bk, "in", events); err != nil {
		t.Fatal(err)
	}
	cc := &hwmCountingCluster{Cluster: bk}
	s, err := New(Config{Cluster: cc, Topic: "in", PollBackoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	start := time.Now()
	id, err := s.Register(Spec{Kind: "sum", Window: 2 * time.Second, Slide: time.Second, Fraction: 0.5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	j, _ := s.job(id)
	waitJobRecords(t, j, int64(len(events)), 10*time.Second)
	pi := s.ing.parts[0]
	batches := int64(pi.batchHist.Count())
	// One read per hwmEvery of delivery plus the loop's first, against
	// one per batch before.
	if reads, most := cc.hwms.Load(), int64(time.Since(start)/hwmEvery)+2; batches < 20 || reads > most {
		t.Errorf("%d high-watermark reads over %d batches in %v, want at most %d", reads, batches, time.Since(start), most)
	}
	stop := time.Now().Add(10 * time.Second)
	for pi.lagGauge.Value() != 0 || j.shards[0].lag.Load() != 0 || j.lagGauge.Value() != 0 {
		if time.Now().After(stop) {
			t.Fatalf("idle partition still reports lag: ingest %v, shard %v, query %v",
				pi.lagGauge.Value(), j.shards[0].lag.Load(), j.lagGauge.Value())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// fetchLogCluster records every fetch the plane issues: when it
// returned and how many records it carried.
type fetchLogCluster struct {
	broker.Cluster
	mu      sync.Mutex
	fetches []loggedFetch
}

type loggedFetch struct {
	at time.Time
	n  int
}

func (c *fetchLogCluster) FetchBatch(topic string, partition int, offset int64, max int, b *stream.EventBatch) (int, error) {
	n, err := c.Cluster.FetchBatch(topic, partition, offset, max, b)
	c.mu.Lock()
	c.fetches = append(c.fetches, loggedFetch{at: time.Now(), n: n})
	c.mu.Unlock()
	return n, err
}

func (c *fetchLogCluster) log() []loggedFetch {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]loggedFetch(nil), c.fetches...)
}

// startPacedPlane serves one sum query over a one-partition topic
// holding events, through a fetch-logging cluster.
func startPacedPlane(t *testing.T, events []stream.Event, backoff time.Duration) (*broker.Broker, *fetchLogCluster, *job) {
	t.Helper()
	bk := broker.New()
	if err := bk.CreateTopic("in", 1); err != nil {
		t.Fatal(err)
	}
	if _, err := produceEvents(bk, "in", events); err != nil {
		t.Fatal(err)
	}
	fl := &fetchLogCluster{Cluster: bk}
	s, err := New(Config{Cluster: fl, Topic: "in", PollBackoff: backoff})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	id, err := s.Register(Spec{Kind: "sum", Window: 2 * time.Second, Slide: time.Second, Fraction: 0.5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	j, _ := s.job(id)
	return bk, fl, j
}

// The poll interval belongs to the fetch loop. A backlog is drained in
// full-fetchMax rounds with no pause between them; the short round that
// ends it is followed by one back-off; and because nothing is fetched
// ahead of that sleep, a record produced into the drained partition is
// delivered by the very next fetch — one back-off away at most, where a
// loop that prefetches before sleeping hands over two stale empty
// rounds first.
func TestFetchLoopDrainsBacklogThenWaitsOneBackoff(t *testing.T) {
	const backoff = 200 * time.Millisecond
	events := makeEvents(41, 40000) // 9 full rounds and a short one
	bk, fl, j := startPacedPlane(t, events, backoff)
	waitJobRecords(t, j, int64(len(events)), 10*time.Second)
	rounds := fl.log()
	full := len(events) / fetchMax
	if len(rounds) < full+1 {
		t.Fatalf("backlog drained in %d fetches, want %d", len(rounds), full+1)
	}
	for i, r := range rounds[:full+1] {
		if i < full && r.n != fetchMax {
			t.Errorf("backlog round %d carried %d records, want a full %d", i, r.n, fetchMax)
		}
		if i > 0 {
			if gap := r.at.Sub(rounds[i-1].at); gap >= backoff/2 {
				t.Errorf("%v between backlog rounds %d and %d: the loop slept while behind", gap, i-1, i)
			}
		}
	}

	// The loop is now inside the back-off that followed the short round.
	late := events[len(events)-1]
	late.Time = late.Time.Add(time.Millisecond)
	produced := time.Now()
	if _, err := produceEvents(bk, "in", []stream.Event{late}); err != nil {
		t.Fatal(err)
	}
	waitJobRecords(t, j, int64(len(events))+1, 10*time.Second)
	if took := time.Since(produced); took > backoff*3/2 {
		t.Errorf("record into a drained partition delivered after %v, want within one %v back-off", took, backoff)
	}
}

// On a drained partition the loop issues one fetch per back-off, never
// more: each round is fetched when the previous sleep ends.
func TestFetchLoopIdleIssuesOneFetchPerBackoff(t *testing.T) {
	const backoff, intervals = 10 * time.Millisecond, 50
	_, fl, j := startPacedPlane(t, makeEvents(43, 100), backoff)
	waitJobRecords(t, j, 100, 10*time.Second)
	from := time.Now()
	time.Sleep(intervals * backoff)
	elapsed := time.Since(from)
	n := 0
	for _, r := range fl.log() {
		if r.at.After(from) {
			if r.n != 0 {
				t.Fatalf("fetch on a drained partition returned %d records", r.n)
			}
			n++
		}
	}
	if most := int(float64(elapsed/backoff)*1.2) + 1; n > most || n < intervals/4 {
		t.Errorf("%d fetches over %v of idling at a %v back-off, want at most %d (and the loop alive)", n, elapsed, backoff, most)
	}
}

// TestIdleMarkerKeepsRecordsQueuedBehindIt holds partition 0's sampling
// group while the partition stays idle, so the plane queues an idle
// marker behind the held drainer. Then partition 1 moves seconds ahead
// and partition 0 receives records older than that, queued behind the
// marker. The marker must advance partition 0's shard only to the
// watermarks it saw when it was queued: every served window holds every
// record produced into it, and no record is dropped as late.
func TestIdleMarkerKeepsRecordsQueuedBehindIt(t *testing.T) {
	bk := broker.New()
	defer bk.Close()
	for _, topic := range []string{"in", "route"} {
		if err := bk.CreateTopic(topic, 2); err != nil {
			t.Fatal(err)
		}
	}
	// A stratum per partition, found by producing one record per
	// candidate to a scratch topic with as many partitions.
	var keys [2]string
	for i := 0; keys[0] == "" || keys[1] == ""; i++ {
		key := fmt.Sprintf("k%d", i)
		if _, err := bk.Produce("route", []broker.Record{{Key: key}}); err != nil {
			t.Fatal(err)
		}
		for p := range keys {
			if hwm, _ := bk.HighWatermark("route", p); hwm > 0 && keys[p] == "" {
				keys[p] = key
				break
			}
		}
	}
	base := time.Date(2017, 12, 11, 0, 0, 0, 0, time.UTC)
	span := func(p int, from, to time.Duration) []stream.Event {
		var events []stream.Event
		for at := from; at < to; at += 10 * time.Millisecond {
			events = append(events, stream.Event{Stratum: keys[p], Value: 1, Time: base.Add(at)})
		}
		return events
	}
	var all []stream.Event
	produce := func(spans ...[]stream.Event) {
		t.Helper()
		events := slices.Concat(spans...)
		if _, err := produceEvents(bk, "in", events); err != nil {
			t.Fatal(err)
		}
		all = append(all, events...)
	}

	s, err := New(Config{Cluster: bk, Topic: "in", PollBackoff: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	id, err := s.Register(Spec{Kind: "sum", Window: time.Second, Slide: time.Second, Fraction: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	j, _ := s.job(id)
	produce(span(0, 0, time.Second), span(1, 0, time.Second))
	waitJobRecords(t, j, int64(len(all)), 10*time.Second)

	pi := s.ing.parts[0]
	pi.mu.Lock()
	sub := pi.groups[0]
	pi.mu.Unlock()
	sub.mu.Lock()
	held := time.Now()
	for len(sub.ch) == 0 || time.Since(held) < 600*time.Millisecond {
		if time.Since(held) > 10*time.Second {
			sub.mu.Unlock()
			t.Fatal("no idle marker queued on partition 0")
		}
		time.Sleep(10 * time.Millisecond)
	}
	// Partition 1 runs to 4s while partition 0 receives [1s, 3s): both in
	// one call, so no later marker of partition 0 sees partition 1 ahead
	// before these records are queued.
	produce(span(1, 3*time.Second, 4*time.Second), span(0, time.Second, 3*time.Second))
	for {
		pi.mu.Lock()
		next := pi.next
		pi.mu.Unlock()
		hwm, _ := bk.HighWatermark("in", 0)
		if next == hwm && j.shards[1].records.Load() == 200 && !j.maxWatermark().Before(base.Add(3990*time.Millisecond)) {
			break
		}
		if time.Since(held) > 10*time.Second {
			sub.mu.Unlock()
			t.Fatal("partition 1 did not advance or partition 0 did not queue its records")
		}
		time.Sleep(5 * time.Millisecond)
	}
	sub.mu.Unlock()

	produce(span(0, 5*time.Second, 7*time.Second), span(1, 5*time.Second, 7*time.Second))
	waitJobRecords(t, j, int64(len(all)), 10*time.Second)
	exact := exactWindowSums(all, time.Second, time.Second)
	last := base.Add(5 * time.Second)
	deadline := time.Now().Add(10 * time.Second)
	for windowItems(j)[last] == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	items := windowItems(j)
	for start, want := range exact {
		if !start.After(last) && float64(items[start]) != want {
			t.Errorf("window %v: %d items, want %v", start.Sub(base), items[start], want)
		}
	}
	for _, sh := range j.shards {
		if late := sh.lateMetric.Value(); late != 0 {
			t.Errorf("shard %d dropped %v records as late", sh.idx, late)
		}
	}
}
