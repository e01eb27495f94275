package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"log/slog"
	"math"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"streamapprox/internal/broker"
	"streamapprox/internal/stream"
)

// backlogCluster, once held, holds every batch fetch below the
// partition's high watermark — a read behind a plane that has read the
// whole log — but the first let of them until released, and records the
// most such fetches in flight at once.
type backlogCluster struct {
	broker.Cluster
	held         atomic.Bool
	gate         chan struct{}
	once         sync.Once
	let          atomic.Int64
	behind, most atomic.Int64
}

func newBacklogCluster(c broker.Cluster) *backlogCluster {
	return &backlogCluster{Cluster: c, gate: make(chan struct{})}
}

// hold starts holding fetches below the high watermark; release lets
// them, and every later one, through, once however often it is called.
func (c *backlogCluster) hold()    { c.held.Store(true) }
func (c *backlogCluster) release() { c.once.Do(func() { close(c.gate) }) }

func (c *backlogCluster) FetchBatch(topic string, partition int, offset int64, max int, b *stream.EventBatch) (int, error) {
	if hwm, err := c.Cluster.HighWatermark(topic, partition); c.held.Load() && err == nil && offset < hwm && c.let.Add(-1) < 0 {
		n := c.behind.Add(1)
		defer c.behind.Add(-1)
		for m := c.most.Load(); n > m && !c.most.CompareAndSwap(m, n); m = c.most.Load() {
		}
		<-c.gate
	}
	return c.Cluster.FetchBatch(topic, partition, offset, max, b)
}

// fanoutSpecs is fanout-mixed's query shape: four kinds × two slides × two
// fractions, each query with a seed of its own — four sampling groups per
// partition.
func fanoutSpecs() []Spec {
	edges := []float64{40, 70, 85, 100, 115, 130, 160}
	var specs []Spec
	for _, kind := range []string{"sum", "mean", "groupby-mean", "histogram"} {
		for _, slide := range []time.Duration{time.Second, 5 * time.Second} {
			for _, f := range []float64{0.1, 0.8} {
				specs = append(specs, Spec{Kind: kind, Window: 2 * slide, Slide: slide, Fraction: f,
					HistogramEdges: edges, Seed: uint64(len(specs) + 1)})
			}
		}
	}
	return specs
}

// burstRun is what a registration burst served: the records the broker
// served per record produced, and a digest of each query's first five
// windows.
type burstRun struct {
	read    float64
	digests []uint64
}

// registrationBurst registers fanoutSpecs one after another from
// "earliest" over a pre-loaded 4-partition log of 40 000 records, at
// GOMAXPROCS procs. held registers the first query alone, waits until the
// plane has read the whole log, holds every fetch below the high
// watermark while the other 15 register behind the plane, and releases
// it. Every query must consume every record exactly once.
func registrationBurst(t *testing.T, procs int, held bool) burstRun {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	bk := broker.New()
	if err := bk.CreateTopic("in", 4); err != nil {
		t.Fatal(err)
	}
	events := makeEvents(5, 40000)
	if _, err := produceEvents(bk, "in", events); err != nil {
		t.Fatal(err)
	}
	bc := newBacklogCluster(bk)
	rc := &recordCountingCluster{Cluster: bc}
	s, err := New(Config{Cluster: rc, Topic: "in", PollBackoff: 100 * time.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	specs := fanoutSpecs()
	var jobs []*job
	if held {
		jobs = registerAll(t, s, specs[:1])
		waitJobRecords(t, jobs[0], int64(len(events)), 15*time.Second)
		bc.hold()
		jobs = append(jobs, registerAll(t, s, specs[1:])...)
		bc.release()
	} else {
		jobs = registerAll(t, s, specs)
	}
	for _, j := range jobs {
		waitJobRecords(t, j, int64(len(events)), 30*time.Second)
	}
	run := burstRun{read: float64(rc.records.Load()) / float64(len(events))}
	for _, j := range jobs {
		var ws []MergedWindow
		for stop := time.Now().Add(15 * time.Second); len(ws) < 5; ws = j.resultsSince(-1) {
			if time.Now().After(stop) {
				t.Fatalf("query %s served %d windows, want 5", j.id, len(ws))
			}
			time.Sleep(time.Millisecond)
		}
		data, _ := json.Marshal(ws[:5])
		h := fnv.New64a()
		h.Write(data)
		run.digests = append(run.digests, h.Sum64())
	}
	time.Sleep(20 * time.Millisecond)
	for _, j := range jobs {
		if n := jobRecords(j); n != int64(len(events)) {
			t.Errorf("query %s consumed %d records, want exactly %d", j.id, n, len(events))
		}
	}
	return run
}

// Fifteen queries that register behind a plane which has read the whole
// log, while the read behind it is held, share one read of the backlog:
// the broker serves the log twice — once to the plane, once behind it —
// not once per late query.
func TestLateRegistrationsShareOneBacklogRead(t *testing.T) {
	for _, procs := range []int{1, 2} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			run := registrationBurst(t, procs, true)
			t.Logf("records fetched: %.2f× the log", run.read)
			if run.read > 2 {
				t.Errorf("15 late queries read %.2f× the log, want at most 2×", run.read)
			}
		})
	}
}

// However many groups stand behind the plane, one reader reads behind it
// per partition: five queries registered behind a plane that has read a
// one-partition log, while every read behind it is held, put at most one
// fetch below the plane in flight, and each consumes every record.
func TestOneReaderBehindThePlane(t *testing.T) {
	bk := broker.New()
	if err := bk.CreateTopic("in", 1); err != nil {
		t.Fatal(err)
	}
	events := makeEvents(31, 30000)
	if _, err := produceEvents(bk, "in", events); err != nil {
		t.Fatal(err)
	}
	bc := newBacklogCluster(bk)
	s, err := New(Config{Cluster: bc, Topic: "in", PollBackoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	spec := Spec{Kind: "count", Window: 2 * time.Second, Slide: time.Second, Fraction: 0.5}
	jobs := registerAll(t, s, []Spec{spec})
	waitJobRecords(t, jobs[0], int64(len(events)), 10*time.Second)
	bc.hold()
	for i := 0; i < 5; i++ {
		spec.Seed = uint64(i + 2)
		jobs = append(jobs, registerAll(t, s, []Spec{spec})...)
	}
	// Give readers of their own time to pile up on the held fetch.
	for stop := time.Now().Add(100 * time.Millisecond); time.Now().Before(stop) && bc.most.Load() <= 1; {
		time.Sleep(time.Millisecond)
	}
	bc.release()
	for _, j := range jobs {
		waitJobRecords(t, j, int64(len(events)), 30*time.Second)
	}
	time.Sleep(20 * time.Millisecond)
	if m := bc.most.Load(); m > 1 {
		t.Errorf("%d fetches below the plane in flight at once, want at most 1", m)
	}
	for _, j := range jobs {
		if n := jobRecords(j); n != int64(len(events)) {
			t.Errorf("query %s consumed %d of %d records", j.id, n, len(events))
		}
	}
}

// A query catching up behind the plane shows how far behind it is: after
// its first round behind a plane that has read a 30 000-record log, with
// every later read behind the plane held, its lag gauge counts at least
// the records still to go. A live query on the plane, which waits for the
// catch-up, shows it too: records produced while the read is held put
// its lag gauge above 0 once the read goes on.
func TestLagGaugeDuringCatchUp(t *testing.T) {
	bk := broker.New()
	if err := bk.CreateTopic("in", 1); err != nil {
		t.Fatal(err)
	}
	events := makeEvents(37, 30000)
	if _, err := produceEvents(bk, "in", events); err != nil {
		t.Fatal(err)
	}
	bc := newBacklogCluster(bk)
	s, err := New(Config{Cluster: bc, Topic: "in", PollBackoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	spec := Spec{Kind: "count", Window: 2 * time.Second, Slide: time.Second, Fraction: 0.5}
	first := registerAll(t, s, []Spec{spec})[0]
	waitJobRecords(t, first, int64(len(events)), 10*time.Second)
	for stop := time.Now().Add(2 * time.Second); first.lagGauge.Value() != 0; time.Sleep(time.Millisecond) {
		if time.Now().After(stop) {
			t.Fatalf("live query's lag gauge reads %v with the log read", first.lagGauge.Value())
		}
	}
	bc.let.Store(1)
	bc.hold()
	defer bc.release()
	spec.Seed = 2
	late := registerAll(t, s, []Spec{spec})[0]
	waitJobRecords(t, late, fetchMax, 10*time.Second)
	want := float64(len(events) - fetchMax)
	for stop := time.Now().Add(2 * time.Second); late.lagGauge.Value() < want && time.Now().Before(stop); {
		time.Sleep(time.Millisecond)
	}
	if lag := late.lagGauge.Value(); lag < want {
		t.Errorf("late query's lag gauge reads %v after %d records, with %v still to go", lag, jobRecords(late), want)
	}

	if _, err := produceEvents(bk, "in", makeEvents(38, 5000)); err != nil {
		t.Fatal(err)
	}
	time.Sleep(2 * hwmEvery) // the next read behind the plane takes a fresh high watermark
	bc.release()
	for stop := time.Now().Add(2 * time.Second); first.lagGauge.Value() == 0 && time.Now().Before(stop); {
		time.Sleep(time.Millisecond)
	}
	if first.lagGauge.Value() == 0 {
		t.Errorf("live query's lag gauge stayed 0 while the plane waited on 5000 new records")
	}
}

// emptyOnceCluster, once armed, answers the next batch fetch below the
// partition's high watermark with no records and no error.
type emptyOnceCluster struct {
	broker.Cluster
	armed *atomic.Bool
}

func (c emptyOnceCluster) FetchBatch(topic string, partition int, offset int64, max int, b *stream.EventBatch) (int, error) {
	if hwm, err := c.Cluster.HighWatermark(topic, partition); err == nil && offset < hwm && c.armed.CompareAndSwap(true, false) {
		return 0, nil
	}
	return c.Cluster.FetchBatch(topic, partition, offset, max, b)
}

// syncBuffer is a bytes.Buffer a logger and a test share.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// With DialShard set, a query catching up reads over its partition's own
// connection: the control connection serves no fetch meanwhile. A round
// behind the plane that comes back empty with no error is read again, and
// logged as no failure.
func TestCatchUpStaysOffTheControlConnection(t *testing.T) {
	bk := broker.New()
	if err := bk.CreateTopic("in", 1); err != nil {
		t.Fatal(err)
	}
	events := makeEvents(41, 20000)
	if _, err := produceEvents(bk, "in", events); err != nil {
		t.Fatal(err)
	}
	control := &countingCluster{Cluster: bk}
	var armed atomic.Bool
	var logs syncBuffer
	s, err := New(Config{Cluster: control, Topic: "in", PollBackoff: time.Millisecond,
		DialShard: func() (broker.Cluster, error) { return emptyOnceCluster{Cluster: bk, armed: &armed}, nil },
		Log:       slog.New(slog.NewTextHandler(&logs, nil))})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	spec := Spec{Kind: "count", Window: 2 * time.Second, Slide: time.Second, Fraction: 0.5}
	first := registerAll(t, s, []Spec{spec})[0]
	waitJobRecords(t, first, int64(len(events)), 10*time.Second)
	before := control.fetches.Load()
	armed.Store(true)
	spec.Seed = 2
	late := registerAll(t, s, []Spec{spec})[0]
	waitJobRecords(t, late, int64(len(events)), 10*time.Second)
	if armed.Load() {
		t.Error("no read behind the plane went over the partition's own connection")
	}
	if n := control.fetches.Load() - before; n != 0 {
		t.Errorf("the control connection served %d fetches while a late query caught up", n)
	}
	if out := logs.String(); strings.Contains(out, "catch-up poll failed") {
		t.Errorf("an empty read behind the plane logged a failure:\n%s", out)
	}
}

// A query's windows do not depend on the queries beside it.
func TestServedWindowsIgnoreCoTenants(t *testing.T) {
	// Sixteen queries registered one after another over a pre-loaded log
	// serve the same first five windows in every run. They do not yet: a
	// sampling group's sampler keeps the seed of whichever member formed
	// it, and which one that is depends on the run's timing (ROADMAP item
	// 19). Setting SERVED_BURST=1 runs it, logging how many times over
	// each free-running burst read the log.
	t.Run("registration_burst", func(t *testing.T) {
		if os.Getenv("SERVED_BURST") == "" {
			t.Skip("red until ROADMAP item 19 keys a group's sampler seed by the group, not its first member; SERVED_BURST=1 runs it")
		}
		var first burstRun
		for i := 0; i < 20; i++ {
			run := registrationBurst(t, 2, false)
			t.Logf("run %d: records fetched %.2f× the log", i, run.read)
			if i == 0 {
				first = run
				continue
			}
			for q, d := range run.digests {
				if d != first.digests[q] {
					t.Errorf("run %d: query %d's first five windows differ from run 0's", i, q)
				}
			}
		}
	})
}

// failFromCluster fails every batch fetch from an offset at or past from
// and below the partition's high watermark — a read behind a plane that
// has read the whole log — and counts the failures.
type failFromCluster struct {
	broker.Cluster
	from, failed atomic.Int64
}

var errReadRefused = errors.New("read behind the plane refused")

func (c *failFromCluster) FetchBatch(topic string, partition int, offset int64, max int, b *stream.EventBatch) (int, error) {
	if hwm, err := c.Cluster.HighWatermark(topic, partition); err == nil && offset >= c.from.Load() && offset < hwm {
		c.failed.Add(1)
		return 0, errReadRefused
	}
	return c.Cluster.FetchBatch(topic, partition, offset, max, b)
}

// lateServer serves a one-partition log of n pre-loaded events through a
// failFromCluster that refuses nothing yet, and returns once its first
// query, a count at fraction 0.5, has read the whole log.
func lateServer(t *testing.T, n int) (*broker.Broker, *failFromCluster, *Server, *job) {
	t.Helper()
	bk := broker.New()
	if err := bk.CreateTopic("in", 1); err != nil {
		t.Fatal(err)
	}
	if _, err := produceEvents(bk, "in", makeEvents(47, n)); err != nil {
		t.Fatal(err)
	}
	fc := &failFromCluster{Cluster: bk}
	fc.from.Store(math.MaxInt64)
	s, err := New(Config{Cluster: fc, Topic: "in", PollBackoff: time.Millisecond,
		Log: slog.New(slog.NewTextHandler(io.Discard, nil))})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	first := registerAll(t, s, []Spec{lateSpec(1, 0.5)})[0]
	waitJobRecords(t, first, int64(n), 10*time.Second)
	return bk, fc, s, first
}

func lateSpec(seed uint64, fraction float64) Spec {
	return Spec{Kind: "count", Window: 2 * time.Second, Slide: time.Second, Fraction: fraction, Seed: seed}
}

// standAt registers a query of spec behind the plane and returns once it
// has read up to at, where reads fail from, and the loop has retried
// there since.
func standAt(t *testing.T, s *Server, fc *failFromCluster, spec Spec, at int64) *job {
	t.Helper()
	j := registerAll(t, s, []Spec{spec})[0]
	waitJobRecords(t, j, at, 10*time.Second)
	for f, stop := fc.failed.Load(), time.Now().Add(10*time.Second); fc.failed.Load() < f+2; {
		if time.Now().After(stop) {
			t.Fatal("no read behind the plane retried")
		}
		time.Sleep(time.Millisecond)
	}
	return j
}

// within fails t unless f returns within d.
func within(t *testing.T, d time.Duration, what string, f func()) {
	t.Helper()
	done := make(chan struct{})
	go func() { defer close(done); f() }()
	select {
	case <-done:
	case <-time.After(d):
		t.Fatalf("%s did not return within %v", what, d)
	}
}

// Late groups of one key fold behind the plane where the lower one
// reaches the higher: a query catching up from the start of the log meets
// one standing where every read fails and is retried, and samples on
// through its sampler; a query of another key stays apart. Once the reads
// succeed again, each group splices onto the plane, and every query
// consumes every record exactly once.
func TestLateGroupsFoldWhereTheyMeet(t *testing.T) {
	for name, tc := range map[string]struct {
		fraction         float64
		behind, samplers float64 // sampling groups while the two stand behind the plane, and at the end
	}{"one key": {0.5, 2, 1}, "unlike keys": {0.3, 3, 2}} {
		t.Run(name, func(t *testing.T) {
			const n, meet = 30000, 3 * fetchMax
			_, fc, s, first := lateServer(t, n)
			fc.from.Store(meet)
			b := standAt(t, s, fc, lateSpec(2, 0.5), meet)
			c := standAt(t, s, fc, lateSpec(3, tc.fraction), meet)
			waitGauges(t, s, 3, tc.behind)
			if folded := groupOf(c.shards[0]) == groupOf(b.shards[0]); folded != (tc.behind == 2) {
				t.Errorf("folded %v where the two met behind the plane, want %v", folded, !folded)
			}
			fc.from.Store(math.MaxInt64)
			for _, j := range []*job{b, c} {
				waitJobRecords(t, j, n, 10*time.Second)
			}
			waitGauges(t, s, 3, tc.samplers)
			for _, j := range []*job{first, b, c} {
				if got := jobRecords(j); got != n {
					t.Errorf("query %s consumed %d records, want exactly %d", j.id, got, n)
				}
			}
		})
	}
}

// Groups of one key that stand at one offset behind the plane fold only
// where their samplers stand at one point of the stream: a group that
// took only the hundred records before that offset stays apart from one
// that caught up from the start, through the catch-up rounds and its
// splice, and each counts every record it took once.
func TestLateGroupsOfUnlikePointsNeverFold(t *testing.T) {
	const meet = 2 * fetchMax
	events := makeEvents(53, meet+300) // the last two slides hold the meeting point
	batch := func(lo, hi int64) *stream.EventBatch {
		b := stream.GetEventBatch()
		for _, e := range events[lo:hi] {
			b.AppendEvent(e)
		}
		b.Base = lo
		return b
	}
	r := newRig(t, 1)
	pi := r.srv.ing.parts[0]
	pi.p.next, pi.p.placed = int64(len(events)), true // a plane that has read the log; a rig runs no loop
	b := r.query("b", lateSpec(2, 0.5))
	sub := b.shards[0].group
	sub.offset = meet - 100
	tail := batch(meet-100, meet)
	push(b.shards[0], tail, time.Time{})
	tail.Release()
	c := r.query("c", lateSpec(3, 0.5))
	for {
		var lo, hi int64
		r.step(0, func(v *partition) { lo, hi = v.read() })
		if lo == pi.p.next { // nothing stands behind the plane
			break
		}
		rb := batch(lo, hi)
		r.step(0, func(v *partition) { v.round(rb) })
		rb.Release()
		if c.shards[0].group == sub {
			t.Fatalf("the group that caught up from the start folded at %d into one that took only the records from %d", hi, meet-100)
		}
	}
	if g := pi.samplersGauge.Value(); g != 2 {
		t.Errorf("%v sampling groups on the plane, want 2", g)
	}
	if got, want := jobRecords(b), int64(len(events)-meet+100); got != want {
		t.Errorf("b consumed %d records, want %d", got, want)
	}
	if got := jobRecords(c); got != int64(len(events)) {
		t.Errorf("c consumed %d records, want %d", got, len(events))
	}
}

// A group behind the plane is read by its partition's loop, not by a
// goroutine of its own: registering queries behind a plane that has read
// a pre-loaded log, while every read behind it is held, leaves the
// goroutine count where it was, and each query then consumes every
// record once.
func TestGroupBehindThePlaneAddsNoGoroutine(t *testing.T) {
	bk := broker.New()
	if err := bk.CreateTopic("in", 4); err != nil {
		t.Fatal(err)
	}
	events := makeEvents(59, 20000)
	if _, err := produceEvents(bk, "in", events); err != nil {
		t.Fatal(err)
	}
	bc := newBacklogCluster(bk)
	s, err := New(Config{Cluster: bc, Topic: "in", PollBackoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	jobs := registerAll(t, s, groupSpecs(1))
	waitJobRecords(t, jobs[0], int64(len(events)), 10*time.Second)
	before := runtime.NumGoroutine()
	bc.hold()
	jobs = append(jobs, registerAll(t, s, []Spec{
		{Kind: "sum", Window: 2 * time.Second, Slide: time.Second, Fraction: 0.3},
		{Kind: "mean", Window: 2 * time.Second, Slide: time.Second, Fraction: 0.5, TargetError: 0.05},
	})...)
	for stop := time.Now().Add(10 * time.Second); bc.behind.Load() < 4; {
		if time.Now().After(stop) {
			t.Fatalf("%d of 4 partitions read behind the plane", bc.behind.Load())
		}
		time.Sleep(time.Millisecond)
	}
	after := runtime.NumGoroutine()
	for stop := time.Now().Add(2 * time.Second); after > before && time.Now().Before(stop); after = runtime.NumGoroutine() {
		time.Sleep(10 * time.Millisecond)
	}
	bc.release()
	if after > before {
		t.Errorf("%d goroutines with queries behind the plane on 4 partitions, %d before", after, before)
	}
	for _, j := range jobs {
		waitJobRecords(t, j, int64(len(events)), 10*time.Second)
	}
	time.Sleep(20 * time.Millisecond)
	for _, j := range jobs {
		if n := jobRecords(j); n != int64(len(events)) {
			t.Errorf("query %s consumed %d of %d records", j.id, n, len(events))
		}
	}
}

// The loop stays in hand while it reads behind the plane, with every read
// there failing and retried: a late query is deleted, and the server
// stops, each in bounded time; and a partition whose one group stands
// behind the plane — the query on the plane deleted — is caught up by its
// loop, splices, and reads on at the plane, the late query consuming
// every record once.
func TestCatchUpYields(t *testing.T) {
	const n = 20000
	t.Run("delete", func(t *testing.T) {
		_, fc, s, first := lateServer(t, n)
		fc.from.Store(fetchMax)
		late := standAt(t, s, fc, lateSpec(2, 0.5), fetchMax)
		within(t, 5*time.Second, "deregistering a query behind the plane", func() {
			if err := s.Deregister(late.id); err != nil {
				t.Error(err)
			}
		})
		waitGauges(t, s, 1, 1)
		fc.from.Store(math.MaxInt64)
		if got := jobRecords(first); got != n {
			t.Errorf("query %s consumed %d records, want exactly %d", first.id, got, n)
		}
	})
	t.Run("stop", func(t *testing.T) {
		_, fc, s, _ := lateServer(t, n)
		fc.from.Store(fetchMax)
		standAt(t, s, fc, lateSpec(2, 0.5), fetchMax)
		within(t, 5*time.Second, "stopping a server reading behind the plane", s.Close)
	})
	t.Run("all groups behind", func(t *testing.T) {
		bk, fc, s, first := lateServer(t, n)
		fc.from.Store(fetchMax)
		late := standAt(t, s, fc, lateSpec(2, 0.5), fetchMax)
		if err := s.Deregister(first.id); err != nil {
			t.Fatal(err)
		}
		waitGauges(t, s, 1, 1)
		fc.from.Store(math.MaxInt64)
		waitJobRecords(t, late, n, 10*time.Second)
		more := makeEvents(61, n+5000)[n:]
		if _, err := produceEvents(bk, "in", more); err != nil {
			t.Fatal(err)
		}
		waitJobRecords(t, late, n+5000, 10*time.Second)
		time.Sleep(20 * time.Millisecond)
		if got := jobRecords(late); got != n+5000 {
			t.Errorf("query %s consumed %d records, want exactly %d", late.id, got, n+5000)
		}
	})
}
