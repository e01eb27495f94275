package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"log/slog"
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
	let          atomic.Int64
	behind, most atomic.Int64
}

func newBacklogCluster(c broker.Cluster) *backlogCluster {
	return &backlogCluster{Cluster: c, gate: make(chan struct{})}
}

// hold starts holding fetches below the high watermark; release lets
// them, and every later one, through.
func (c *backlogCluster) hold()    { c.held.Store(true) }
func (c *backlogCluster) release() { close(c.gate) }

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
// the broker serves the log twice — once to the plane, once to the sweep —
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
// the records still to go.
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
