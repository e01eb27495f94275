package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"streamapprox/internal/broker"
	"streamapprox/internal/broker/storage"
	"streamapprox/internal/pane"
	"streamapprox/internal/stream"
)

// TestCheckpointRestartResumes kills a server mid-stream and restarts it
// from the checkpoint directory: the query must come back without
// re-registration, resume from the saved offsets and sequence counter,
// and never emit a window twice.
func TestCheckpointRestartResumes(t *testing.T) {
	dir := t.TempDir()
	b := broker.New()
	if err := b.CreateTopic("in", 2); err != nil {
		t.Fatal(err)
	}
	events := makeEvents(19, 16000) // 16s of data
	half := len(events) / 2
	if _, err := produceEvents(b, "in", events[:half]); err != nil {
		t.Fatal(err)
	}

	cfg := Config{
		Cluster:         b,
		Topic:           "in",
		CheckpointDir:   dir,
		CheckpointEvery: 20 * time.Millisecond,
		PollBackoff:     time.Millisecond,
	}
	s1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	id, err := s1.Register(Spec{Kind: "sum", Window: 2 * time.Second, Slide: time.Second, Fraction: 0.5})
	if err != nil {
		t.Fatal(err)
	}

	j1, _ := s1.job(id)
	deadline := time.Now().Add(10 * time.Second)
	var before []MergedWindow
	for {
		before = j1.resultsSince(-1)
		if len(before) >= 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("first server produced only %d windows", len(before))
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Close checkpoints (without flushing partial windows) and stops.
	s1.Close()
	maxSeq := before[len(before)-1].Seq
	var consumed1 int64
	for _, sh := range j1.shards {
		consumed1 += sh.records.Load()
	}
	if consumed1 == 0 {
		t.Fatal("first server consumed nothing")
	}

	// Restart from the checkpoint and feed the rest of the stream.
	s2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	j2, ok := s2.job(id)
	if !ok {
		t.Fatalf("query %s not restored; have %v", id, s2.jobs())
	}
	if j2.spec.Kind != "sum" || j2.spec.Window != 2*time.Second {
		t.Fatalf("restored spec = %+v", j2.spec)
	}
	if _, err := produceEvents(b, "in", events[half:]); err != nil {
		t.Fatal(err)
	}

	deadline = time.Now().Add(10 * time.Second)
	var after []MergedWindow
	for {
		after = j2.resultsSince(-1)
		if len(after) >= 6 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("restarted server produced only %d new windows", len(after))
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Sequence numbers continue past the first run's; no window start is
	// served twice across the runs.
	seen := map[time.Time]int64{}
	for _, r := range before {
		seen[r.Start] = r.Seq
	}
	for _, r := range after {
		if r.Seq <= maxSeq {
			t.Errorf("restarted window %v reuses seq %d (first run ended at %d)", r.Start, r.Seq, maxSeq)
		}
		if firstSeq, dup := seen[r.Start]; dup {
			t.Errorf("window %v served twice (seq %d and %d)", r.Start, firstSeq, r.Seq)
		}
	}

	// The two runs together must account for every produced record
	// exactly once: restored counters carry the first run's records.
	var consumed2 int64
	for _, sh := range j2.shards {
		consumed2 += sh.records.Load()
	}
	waitTotal := time.Now().Add(10 * time.Second)
	for consumed2 < int64(len(events)) && time.Now().Before(waitTotal) {
		time.Sleep(5 * time.Millisecond)
		consumed2 = 0
		for _, sh := range j2.shards {
			consumed2 += sh.records.Load()
		}
	}
	if consumed2 != int64(len(events)) {
		t.Errorf("total consumed across runs = %d, want %d (offsets not resumed)", consumed2, len(events))
	}

	// A registration after restart picks a fresh id.
	id2, err := s2.Register(Spec{Kind: "count", Window: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if id2 == id {
		t.Errorf("restarted server reissued id %s", id)
	}
}

// TestNewQueryNeverInheritsDeletedQueryPosition: q-1 is checkpointed
// past the start of the topic, then deleted; after a restart the next
// registration is q-1 again, and it must read the topic from the start,
// not from the deleted query's position.
func TestNewQueryNeverInheritsDeletedQueryPosition(t *testing.T) {
	b := broker.New()
	if err := b.CreateTopic("in", 2); err != nil {
		t.Fatal(err)
	}
	events := makeEvents(5, 4000)
	if _, err := produceEvents(b, "in", events); err != nil {
		t.Fatal(err)
	}
	cfg := Config{Cluster: b, Topic: "in", CheckpointDir: t.TempDir(),
		CheckpointEvery: time.Hour, PollBackoff: time.Millisecond}
	s1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	spec := Spec{Kind: "count", Window: time.Second}
	for _, want := range []string{"q-0", "q-1"} {
		if id, err := s1.Register(spec); err != nil || id != want {
			t.Fatalf("registered %q, %v; want %s", id, err, want)
		}
	}
	waitRecords := func(s *Server, id string) int64 {
		j, _ := s.job(id)
		for deadline := time.Now().Add(10 * time.Second); jobRecords(j) < int64(len(events)) && time.Now().Before(deadline); {
			time.Sleep(2 * time.Millisecond)
		}
		return jobRecords(j)
	}
	if n := waitRecords(s1, "q-1"); n != int64(len(events)) {
		t.Fatalf("q-1 consumed %d of %d", n, len(events))
	}
	s1.checkpointAll()
	if cfs, err := loadCheckpoints(cfg.CheckpointDir); err != nil || len(cfs) != 2 || cfs[1].ID != "q-1" || cfs[1].Shards[0].Offset == 0 {
		t.Fatalf("checkpoints = %v, %v; the premise needs q-1's position past 0", cfs, err)
	}
	if err := s1.Deregister("q-1"); err != nil {
		t.Fatal(err)
	}
	s1.Close()

	s2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if id, err := s2.Register(spec); err != nil || id != "q-1" {
		t.Fatalf("registered %q, %v; want the reused id q-1", id, err)
	}
	if n := waitRecords(s2, "q-1"); n != int64(len(events)) {
		t.Fatalf("the new q-1 consumed %d of %d records: it started at the deleted q-1's position", n, len(events))
	}
}

// TestCheckpointWithBrokerDownIsPrompt: a checkpoint is local state
// only. With the one broker of a one-member cluster stopped under
// routing clients that would retry a broker call for seconds, a
// checkpoint still returns at once and writes the query's file — the
// only one: no shared _ingest.json — and so does Close. The server is
// wired as saproxd wires it: each partition loop on a connection of its
// own, which Close closes under a fetch it may be retrying.
func TestCheckpointWithBrokerDownIsPrompt(t *testing.T) {
	bc := startBrokerCluster(t, 1)
	cc, err := broker.DialCluster(bc.addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = cc.Close() }()
	if err := cc.CreateTopic("in", 2); err != nil {
		t.Fatal(err)
	}
	events := makeEvents(3, 2000)
	recs := make([]broker.Record, len(events))
	for i, e := range events {
		recs[i] = broker.FromEvent(e)
	}
	if _, err := cc.Produce("in", recs); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	s, err := New(Config{
		Cluster:         cc,
		DialShard:       func() (broker.Cluster, error) { return broker.DialCluster(bc.addrs) },
		Topic:           "in",
		CheckpointDir:   dir,
		CheckpointEvery: time.Hour,
		PollBackoff:     time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	id, err := s.Register(Spec{Kind: "count", Window: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	j, _ := s.job(id)
	for deadline := time.Now().Add(10 * time.Second); jobRecords(j) < int64(len(events)) && time.Now().Before(deadline); {
		time.Sleep(2 * time.Millisecond)
	}
	if n := jobRecords(j); n != int64(len(events)) {
		t.Fatalf("consumed %d of %d before stopping the broker", n, len(events))
	}

	bc.kill(0)
	start := time.Now()
	s.checkpointAll()
	if took := time.Since(start); took >= time.Second {
		t.Errorf("checkpoint with the broker down took %v; want < 1s", took)
	}
	if _, err := os.Stat(filepath.Join(dir, id+".json")); err != nil {
		t.Errorf("checkpoint with the broker down: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "_ingest.json")); !os.IsNotExist(err) {
		t.Errorf("checkpoint wrote a shared _ingest.json (stat: %v)", err)
	}
	start = time.Now()
	s.Close()
	if took := time.Since(start); took >= time.Second {
		t.Errorf("Close with the broker down took %v; want < 1s", took)
	}
}

// TestSharedPlaneRestartNoLossNoDup is the shared-ingest recovery
// property: restart a server from its checkpoint directory with queries
// at different points of the stream, feed the rest of the stream, and
// assert that EVERY query accounts for every produced record exactly
// once and serves no window twice. Each query's own delivery watermarks
// must make restart loss- and duplication-free whichever query the
// restarted plane is positioned by: restore attaches in id order and
// the first shard to attach to a partition positions it.
//
//   - late behind: the kill lands while a late-registered query is still
//     catching up; q-0, ahead, positions the plane and the late query
//     replays the gap through the catch-up path.
//   - first attach behind: the late query is q-10, which sorts before
//     the early queries q-2 … q-5, and a periodic checkpoint is cut while
//     it is still catching up. At restart it positions the plane at its
//     own, lower offset, and every other query skips ahead on the plane.
func TestSharedPlaneRestartNoLossNoDup(t *testing.T) {
	t.Run("late behind", restartLateBehind)
	t.Run("first attach behind", restartFirstAttachBehind)
}

// restartSpecs are the restart tests' queries: the sum and the second
// count share a sampler (same slide and fraction), as does the late sum
// once it has caught up.
var restartSpecs = []Spec{
	{Kind: "sum", Window: 2 * time.Second, Slide: time.Second, Fraction: 0.5},
	{Kind: "mean", Window: 3 * time.Second, Slide: time.Second, Fraction: 0.6},
	{Kind: "count", Window: 2 * time.Second, Slide: 2 * time.Second, Fraction: 0.4},
	{Kind: "count", Window: 3 * time.Second, Slide: time.Second, Fraction: 0.5, Seed: 3},
}

var restartLateSpec = Spec{Kind: "sum", Window: 2 * time.Second, Slide: time.Second,
	Fraction: 0.5, From: "earliest", Seed: 5}

func restartLateBehind(t *testing.T) {
	dir := t.TempDir()
	b := broker.New()
	if err := b.CreateTopic("in", 2); err != nil {
		t.Fatal(err)
	}
	events := makeEvents(47, 16000) // 16s of data
	half := len(events) / 2
	if _, err := produceEvents(b, "in", events[:half]); err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Cluster:         b,
		Topic:           "in",
		CheckpointDir:   dir,
		CheckpointEvery: 15 * time.Millisecond,
		PollBackoff:     time.Millisecond,
	}
	s1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for _, j := range registerAll(t, s1, restartSpecs) {
		ids = append(ids, j.id)
	}
	// Let the early queries get ahead, then register a late one from the
	// beginning: it restores mid-catch-up if the kill lands while it is
	// still chasing the plane.
	for _, id := range ids {
		j, _ := s1.job(id)
		deadline := time.Now().Add(10 * time.Second)
		for len(j.resultsSince(-1)) < 2 {
			if time.Now().After(deadline) {
				t.Fatalf("query %s produced no early windows", id)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	lateID, err := s1.Register(restartLateSpec)
	if err != nil {
		t.Fatal(err)
	}
	ids = append(ids, lateID)
	// Give the late query a moment to start catching up, then cut the
	// server down mid-stream (Close checkpoints without flushing).
	jLate, _ := s1.job(lateID)
	deadline := time.Now().Add(10 * time.Second)
	for jobRecords(jLate) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("late query never started catching up")
		}
		time.Sleep(time.Millisecond)
	}
	before := make(map[string][]MergedWindow)
	for _, id := range ids {
		j, _ := s1.job(id)
		before[id] = j.resultsSince(-1)
	}
	s1.Close()

	s2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	assertRestartExactlyOnce(t, b, s2, events, before)
}

// stallCluster, once armed, serves a catch-up read (one below the
// partition's high watermark) its first round of at most 500 records and
// holds every later one until the gate opens: the plane, reading at the
// high watermark, runs on.
type stallCluster struct {
	broker.Cluster
	armed atomic.Bool
	gate  chan struct{}
}

func (c *stallCluster) FetchBatch(topic string, partition int, offset int64, max int, b *stream.EventBatch) (int, error) {
	if !c.armed.Load() {
		return c.Cluster.FetchBatch(topic, partition, offset, max, b)
	}
	if hwm, err := c.HighWatermark(topic, partition); err == nil && offset < hwm {
		if offset > 0 {
			<-c.gate
		}
		max = min(max, 500)
	}
	return c.Cluster.FetchBatch(topic, partition, offset, max, b)
}

func restartFirstAttachBehind(t *testing.T) {
	b := broker.New()
	if err := b.CreateTopic("in", 2); err != nil {
		t.Fatal(err)
	}
	events := makeEvents(53, 16000)
	half := len(events) / 2
	if _, err := produceEvents(b, "in", events[:half]); err != nil {
		t.Fatal(err)
	}
	sc := &stallCluster{Cluster: b, gate: make(chan struct{})}
	dir := t.TempDir()
	s1, err := New(Config{Cluster: sc, Topic: "in", CheckpointDir: dir,
		CheckpointEvery: time.Hour, PollBackoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	s1.nextID = 2 // the early queries are q-2 … q-5
	for _, j := range registerAll(t, s1, restartSpecs) {
		waitJobRecords(t, j, int64(half), 10*time.Second)
	}
	sc.armed.Store(true)
	s1.nextID = 10
	lateID, err := s1.Register(restartLateSpec)
	if err != nil {
		t.Fatal(err)
	}
	jLate, _ := s1.job(lateID)
	waitJobRecords(t, jLate, 1000, 10*time.Second) // 500 per partition, then held
	s1.checkpointAll()
	// The kill -9 copy: the checkpoint directory as the periodic cut left
	// it, before Close writes its own.
	killed := t.TempDir()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err == nil {
			err = os.WriteFile(filepath.Join(killed, e.Name()), data, 0o644)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	cfs, err := loadCheckpoints(killed)
	if err != nil {
		t.Fatal(err)
	}
	if len(cfs) != 5 || cfs[0].ID != lateID {
		t.Fatalf("checkpoints %v: want 5, %s first", cfs, lateID)
	}
	for _, shc := range cfs[0].Shards {
		if shc.Offset != 500 {
			t.Fatalf("%s cut at offset %d on partition %d, want 500 (still catching up)", lateID, shc.Offset, shc.Partition)
		}
	}
	close(sc.gate)
	// Windows served after the cut are lost with the kill: the restarted
	// server serves them again from the checkpoint.
	before := make(map[string][]MergedWindow)
	for _, cf := range cfs {
		j, _ := s1.job(cf.ID)
		before[cf.ID] = slices.DeleteFunc(j.resultsSince(-1), func(r MergedWindow) bool { return r.Seq >= cf.Seq })
	}
	s1.Close()

	s2, err := New(Config{Cluster: b, Topic: "in", CheckpointDir: killed,
		CheckpointEvery: time.Hour, PollBackoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	assertRestartExactlyOnce(t, b, s2, events, before)
}

// assertRestartExactlyOnce produces the rest of events to the restarted
// server s2 and asserts that every query in before — the windows each
// served before the cut — accounts for every record exactly once and
// serves no window twice: over-delivery would overshoot the record
// counters; a re-served window would reuse a window start across the
// two runs.
func assertRestartExactlyOnce(t *testing.T, b *broker.Broker, s2 *Server, events []stream.Event, before map[string][]MergedWindow) {
	t.Helper()
	for id := range before {
		if _, ok := s2.job(id); !ok {
			t.Fatalf("query %s not restored", id)
		}
	}
	if _, err := produceEvents(b, "in", events[len(events)/2:]); err != nil {
		t.Fatal(err)
	}
	for id := range before {
		j, _ := s2.job(id)
		waitJobRecords(t, j, int64(len(events)), 15*time.Second)
	}
	time.Sleep(100 * time.Millisecond)
	// The restored private sessions regroup: one sampler per key.
	waitGauges(t, s2, float64(len(before)), 3)
	for id, served := range before {
		j, _ := s2.job(id)
		if n := jobRecords(j); n != int64(len(events)) {
			t.Errorf("query %s consumed %d records across runs, want exactly %d", id, n, len(events))
		}
		if n := shardRecordsTotal(s2, j); n != int64(len(events)) {
			t.Errorf("query %s: saproxd_shard_records_total = %d across runs, want %d", id, n, len(events))
		}
		seen := map[time.Time]int64{}
		var maxSeq int64 = -1
		for _, r := range served {
			seen[r.Start] = r.Seq
			maxSeq = max(maxSeq, r.Seq)
		}
		for _, r := range j.resultsSince(-1) {
			if r.Seq <= maxSeq {
				t.Errorf("query %s: restarted window %v reuses seq %d", id, r.Start, r.Seq)
			}
			if firstSeq, dup := seen[r.Start]; dup {
				t.Errorf("query %s: window %v served twice (seq %d and %d)", id, r.Start, firstSeq, r.Seq)
			}
		}
	}
}

// TestCheckpointSurvivesEmptyPartition checkpoints a query whose topic
// has a never-written partition — its shard session must snapshot (nil
// sampler) and restore.
func TestCheckpointSurvivesEmptyPartition(t *testing.T) {
	dir := t.TempDir()
	b := broker.New()
	if err := b.CreateTopic("in", 4); err != nil {
		t.Fatal(err)
	}
	// Only one stratum → at most one active partition.
	var events []stream.Event
	base := time.Date(2017, 12, 11, 0, 0, 0, 0, time.UTC)
	for i := 0; i < 4000; i++ {
		events = append(events, stream.Event{Stratum: "only", Value: 1, Time: base.Add(time.Duration(i) * time.Millisecond)})
	}
	if _, err := produceEvents(b, "in", events); err != nil {
		t.Fatal(err)
	}
	cfg := Config{Cluster: b, Topic: "in", CheckpointDir: dir,
		CheckpointEvery: 20 * time.Millisecond, PollBackoff: time.Millisecond}
	s1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	id, err := s1.Register(Spec{Kind: "count", Window: time.Second, Slide: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	j1, _ := s1.job(id)
	deadline := time.Now().Add(10 * time.Second)
	for len(j1.resultsSince(-1)) < 1 {
		if time.Now().After(deadline) {
			t.Fatal("no windows merged from a single active partition")
		}
		time.Sleep(5 * time.Millisecond)
	}
	for _, r := range j1.resultsSince(-1) {
		if r.Items > 0 && r.Items != 1000 && r.End.Before(base.Add(4*time.Second)) {
			t.Errorf("window %v: items %d", r.Start, r.Items)
		}
	}
	s1.Close()

	s2, err := New(cfg)
	if err != nil {
		t.Fatalf("restart with empty partitions: %v", err)
	}
	if _, ok := s2.job(id); !ok {
		t.Error("query not restored")
	}
	s2.Close()
}

// testdata/checkpoint_v2 was written at commit c8be5b8, the last whose
// merger recovered each part's variance from its bound: four queries,
// each checkpointed with three windows holding three parts. Version 2 is
// three formats back, and refused whole.
func TestRestoreV2CheckpointRefused(t *testing.T) {
	refuseCheckpointDir(t, "testdata/checkpoint_v2", 2, "commit 1338931")
}

// refuseCheckpointDir requires a server restarted over a copy of a
// fixture directory of checkpoints two or more formats back to fail with
// an error naming the first file, its version, the versions read and the
// last commit that upgrades it, and to leave every file as it was.
func refuseCheckpointDir(t *testing.T, fixture string, version int, commit string) {
	t.Helper()
	dir := t.TempDir()
	want := make(map[string][]byte)
	entries, err := os.ReadDir(fixture)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(fixture, e.Name()))
		if err == nil {
			err = os.WriteFile(filepath.Join(dir, e.Name()), data, 0o644)
		}
		if err != nil {
			t.Fatal(err)
		}
		want[e.Name()] = data
	}
	b := broker.New()
	defer b.Close()
	if err := b.CreateTopic("in", 4); err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Cluster: b, Topic: "in", CheckpointDir: dir, CheckpointEvery: time.Hour})
	if err == nil {
		s.Close()
		t.Fatalf("a server restored version-%d checkpoints", version)
	}
	for _, part := range []string{"checkpoint q-0.json", fmt.Sprintf("version %d", version), "versions 4 and 5", commit} {
		if !strings.Contains(err.Error(), part) {
			t.Errorf("refusal %q does not name %q", err, part)
		}
	}
	after, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != len(want) {
		t.Errorf("%d files after the refused restart, want the %d of the fixture", len(after), len(want))
	}
	for _, e := range after {
		if data, err := os.ReadFile(filepath.Join(dir, e.Name())); err != nil || !bytes.Equal(data, want[e.Name()]) {
			t.Errorf("%s changed by the refused restart: %v", e.Name(), err)
		}
	}
}

// TestRestoreRefusesNegativeOffset: a checkpoint whose shard stands at a
// negative offset is refused at restart, naming the shard and offset,
// rather than restored to a position no fetch can read.
func TestRestoreRefusesNegativeOffset(t *testing.T) {
	data, err := os.ReadFile("testdata/checkpoint_v4/q-0.json")
	if err != nil {
		t.Fatal(err)
	}
	data = bytes.Replace(data, []byte(`"partition":0,"offset":1820`), []byte(`"partition":0,"offset":-1`), 1)
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "q-0.json"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	b := broker.New()
	defer b.Close()
	if err := b.CreateTopic("in", 2); err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Cluster: b, Topic: "in", CheckpointDir: dir, CheckpointEvery: time.Hour})
	if err == nil {
		s.Close()
		t.Fatal("a server restored a shard at offset -1")
	}
	if !strings.Contains(err.Error(), "shard 0 offset -1 is negative") {
		t.Fatalf("refusal %q does not name the shard and its offset", err)
	}
}

// testdata/checkpoint_v3_pending was written at commit 28e1c76, the last
// whose shards fired windows and whose merger merged their results: seven
// queries, one of each kind, checkpointed holding one window with three
// parts. Version 3 is two formats back, and refused whole.
func TestRestoreV3PendingCheckpointRefused(t *testing.T) {
	refuseCheckpointDir(t, "testdata/checkpoint_v3_pending", 3, "commit bf6c4fd")
}

// testdata/checkpoint_v4 was written at commit bf6c4fd, the last whose
// session snapshots carried each sampler's arrival counts and interval
// seed, by a rig over two partitions fed shareBatches(29, 30) through
// applyKeyed: a sampling group of three members (sum, groupby-mean and
// histogram at f = 0.3, slide 1 s; q-0 to q-2) and a mean under a target
// error that samples alone (q-3), checkpointed after half the batches
// with every shard mid-pane, its reservoirs past fill.
// checkpoint_v4_served.json holds what each query of that uninterrupted
// run served after the cut. Restored in id order the members form their
// group again, and fed the other half every query serves those windows,
// bit for bit and numbered on from the checkpoint.
func TestRestoreV4CheckpointContinuesParentRun(t *testing.T) {
	cfs, err := loadCheckpoints("testdata/checkpoint_v4")
	if err != nil {
		t.Fatal(err)
	}
	served := servedFixture(t, "testdata/checkpoint_v4_served.json")
	if len(cfs) != 4 {
		t.Fatalf("%d checkpoints, want 4", len(cfs))
	}
	r := newRig(t, 2)
	for _, sc := range cfs[0].Shards {
		r.next[sc.Partition] = sc.Offset // the plane stands where the shards do
	}
	var jobs []*job
	for _, cf := range cfs {
		if cf.Version != 4 {
			t.Fatalf("%s: fixture is version %d, want 4", cf.ID, cf.Version)
		}
		if err := cf.Spec.normalize(); err != nil {
			t.Fatal(err)
		}
		j, err := newJob(cf.ID, cf.Spec, r.srv, cf)
		if err != nil {
			t.Fatal(err)
		}
		r.join(j)
		jobs = append(jobs, j)
	}
	for _, j := range jobs[1:3] {
		for _, sh := range j.shards {
			if sh.group != jobs[0].shards[sh.idx].group {
				t.Fatalf("%s shard %d does not share its group's sampler after the restore", j.id, sh.idx)
			}
		}
	}
	batches := shareBatches(29, 30)
	applyKeyed(r, batches[len(batches)/2:])
	for i, j := range jobs {
		j.stop(true)
		got := j.resultsSince(-1)
		if len(got) == 0 || got[0].Seq != cfs[i].Seq {
			t.Fatalf("%s: %d windows served after the restore, the first numbered %v; want from %d", j.id, len(got), got, cfs[i].Seq)
		}
		g, _ := json.Marshal(got)
		w, _ := json.Marshal(served[j.id])
		if !bytes.Equal(g, w) {
			t.Errorf("%s: served after the restore\n%s\nthe uninterrupted run\n%s", j.id, g, w)
		}
	}
}

// applyKeyed hands each batch's records of strata a and c to the rig's
// partition 0 and those of b and d to partition 1.
func applyKeyed(r *rig, batches [][]stream.Event) {
	for _, events := range batches {
		var parts [2][]stream.Event
		for _, e := range events {
			p := 0
			if e.Stratum == "b" || e.Stratum == "d" {
				p = 1
			}
			parts[p] = append(parts[p], e)
		}
		for p, evs := range parts {
			if len(evs) > 0 {
				b := stream.BatchOf(evs)
				r.apply(p, b)
				b.Release()
			}
		}
	}
}

// TestTornIngestStateDoesNotBlockRestart: a query's own file is the whole
// of its restart state. An older release also kept the plane's position
// in a shared _ingest.json; a crash between its create and its rename
// could leave that file empty. A directory holding such a file beside a
// query's checkpoint restores the query, and the file is neither read
// nor rewritten.
func TestTornIngestStateDoesNotBlockRestart(t *testing.T) {
	dir := t.TempDir()
	b := broker.New()
	if err := b.CreateTopic("in", 2); err != nil {
		t.Fatal(err)
	}
	events := makeEvents(11, 4000)
	if _, err := produceEvents(b, "in", events); err != nil {
		t.Fatal(err)
	}
	cfg := Config{Cluster: b, Topic: "in", CheckpointDir: dir,
		CheckpointEvery: time.Hour, PollBackoff: time.Millisecond}
	s1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	id, err := s1.Register(Spec{Kind: "count", Window: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	j1, _ := s1.job(id)
	waitJobRecords(t, j1, int64(len(events)), 10*time.Second)
	s1.Close()
	torn := filepath.Join(dir, "_ingest.json")
	if err := os.WriteFile(torn, nil, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := New(cfg)
	if err != nil {
		t.Fatalf("restart beside a torn _ingest.json: %v", err)
	}
	j2, ok := s2.job(id)
	if !ok {
		t.Fatalf("query %s not restored", id)
	}
	if n := jobRecords(j2); n != int64(len(events)) {
		t.Errorf("restored query counts %d records, want %d", n, len(events))
	}
	s2.Close()
	if data, err := os.ReadFile(torn); err != nil || len(data) != 0 {
		t.Errorf("_ingest.json after restart: %d bytes, %v; want untouched (0 bytes)", len(data), err)
	}
}

// TestRestoredTargetErrorSamplesAtOneFraction: a target_error query
// checkpointed while its shards sample at different fractions — one shard
// has delivered since the query's fraction moved, the other not yet —
// restores to one fraction: once each shard has delivered, every shard
// samples at it, to the end of the stream.
func TestRestoredTargetErrorSamplesAtOneFraction(t *testing.T) {
	spec := Spec{Kind: "mean", Window: 2 * time.Second, Slide: time.Second, Fraction: 0.3, TargetError: 0.02}
	if err := spec.normalize(); err != nil {
		t.Fatal(err)
	}
	srv := fixtureServer(t, 2)
	j, err := newJob("q", spec, srv, nil)
	if err != nil {
		t.Fatal(err)
	}
	events := fixtureStream(5, 20000)
	const round = 250 * time.Millisecond
	fractions := func(j *job) []float64 {
		var out []float64
		for _, sh := range j.shards {
			unlock := sh.lock()
			out = append(out, sh.group.ps.Fraction())
			unlock()
		}
		return out
	}
	lo, end := events[0].Time, events[len(events)-1].Time
	for ; lo.Before(end); lo = lo.Add(round) {
		driveShards(j, events, keyedBy(2), lo, lo.Add(round))
		if f := fractions(j); f[0] != f[1] {
			break
		}
	}
	if !lo.Before(end) {
		t.Fatal("the shards never sampled at different fractions")
	}
	cf, err := j.checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(cf)
	if err != nil {
		t.Fatal(err)
	}
	var back checkpointFile
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	r, err := newJob("q", spec, srv, &back)
	if err != nil {
		t.Fatal(err)
	}
	driveShards(r, events, keyedBy(2), lo.Add(round), end)
	for _, sh := range r.shards {
		unlock := sh.lock()
		sh.deliver(time.Time{})
		unlock()
	}
	if f := fractions(r); f[0] != f[1] {
		t.Errorf("restored shards sample at %v once each has delivered, want one fraction", f)
	}
}

// testdata/checkpoint_v3 was written at commit df8d9d8, the last whose
// server also kept the plane's position in a shared _ingest.json: a
// grouped pair, a mean and a late sum from earliest over two partitions.
// Version 3 is two formats back: the restart is refused, and neither the
// checkpoints nor the unread _ingest.json beside them is touched.
func TestRestoreParentCheckpointDir(t *testing.T) {
	refuseCheckpointDir(t, "testdata/checkpoint_v3", 3, "commit bf6c4fd")
}

// TestCheckpointDuringFiringIsStable: a checkpoint captures the merger's
// slides under j.mu and is encoded after that lock is released, while the
// query goes on firing windows and the merger reuses the pane tables of
// the slides it drops. What it encodes, during the firing and after the
// captured slides were all dropped, is what a deep copy of the slides
// taken under j.mu encodes.
func TestCheckpointDuringFiringIsStable(t *testing.T) {
	f := newFiring(t, "groupby-mean")
	var paused sync.Mutex // held: the query fires nothing
	var steps atomic.Int64
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
			}
			paused.Lock()
			f.step()
			paused.Unlock()
			steps.Add(1)
		}
	}()
	defer func() {
		close(stop)
		<-done
	}()
	for steps.Load() == 0 {
		runtime.Gosched()
	}
	for range 50 {
		paused.Lock()
		f.j.mu.Lock()
		want, err := json.Marshal(f.j.merger.capture())
		f.j.mu.Unlock()
		if err != nil {
			t.Fatal(err)
		}
		cf, err := f.j.checkpoint()
		if err != nil {
			t.Fatal(err)
		}
		from := steps.Load()
		paused.Unlock()
		if len(cf.Slides) == 0 {
			t.Fatal("the checkpoint holds no slide")
		}
		during, err := json.Marshal(cf.Slides)
		if err != nil {
			t.Fatal(err)
		}
		// Every captured slide is dropped, and its table reused, within
		// the steps of a window and one more.
		for steps.Load() < from+int64(f.j.spec.Window/f.j.spec.Slide)+2 {
			runtime.Gosched()
		}
		after, err := json.Marshal(cf.Slides)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(during, want) || !bytes.Equal(after, want) {
			t.Fatalf("checkpoint slides encode\n%s during the firing and\n%s after it, want\n%s", during, after, want)
		}
	}
}

// TestCheckpointDuringFoldIsStable: five late registrations, one at a
// time, catch up behind the plane and fold into the group on it while
// every query is checkpointed in a loop. A fold moves shards between
// groups under the partition lock, which a checkpoint takes too: every
// checkpoint decodes, each shard's record count is its offset — every
// record below it read once, in the hold that read the offset — and once
// the plane stops, each folded member's snapshot holds its group-mate's
// sampler state.
func TestCheckpointDuringFoldIsStable(t *testing.T) {
	bk := broker.New()
	if err := bk.CreateTopic("in", 2); err != nil {
		t.Fatal(err)
	}
	events := makeEvents(67, 96000)
	half := len(events) / 2
	if _, err := produceEvents(bk, "in", events[:half]); err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Cluster: bk, Topic: "in", PollBackoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	specs := groupSpecs(6)
	jobs := registerAll(t, s, specs[:1])
	waitJobRecords(t, jobs[0], int64(half), 10*time.Second)

	stop, done := make(chan struct{}), make(chan struct{})
	var taken int
	var failed error
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, j := range s.jobs() {
				cf, err := j.checkpoint()
				if err != nil {
					failed = err
					return
				}
				data, err := json.Marshal(cf)
				var back checkpointFile
				if err == nil {
					err = json.Unmarshal(data, &back)
				}
				for _, sc := range back.Shards {
					if err == nil {
						_, err = pane.Decode(sc.Session)
					}
					if err == nil && sc.Records != sc.Offset {
						err = fmt.Errorf("%s shard %d: %d records below offset %d", j.id, sc.Partition, sc.Records, sc.Offset)
					}
				}
				if err != nil {
					failed = err
					return
				}
				taken++
			}
		}
	}()
	for i := 2; i <= len(specs); i++ {
		jobs = append(jobs, registerAll(t, s, specs[i-1:i])...)
		waitGauges(t, s, float64(i), 1)
	}
	if _, err := produceEvents(bk, "in", events[half:]); err != nil {
		t.Fatal(err)
	}
	for _, j := range jobs {
		waitJobRecords(t, j, int64(len(events)), 15*time.Second)
	}
	waitGauges(t, s, float64(len(specs)), 1)
	close(stop)
	<-done
	if failed != nil {
		t.Fatal(failed)
	}
	t.Logf("%d checkpoints taken through the folds", taken)

	s.ing.stop()
	for p := range s.ing.parts {
		var states []pane.State
		for _, j := range jobs {
			cf, err := j.checkpoint()
			if err != nil {
				t.Fatal(err)
			}
			st, err := pane.Decode(cf.Shards[p].Session)
			if err != nil {
				t.Fatal(err)
			}
			states = append(states, st.State)
		}
		for i, st := range states[1:] {
			if st.Sampler == nil || !reflect.DeepEqual(st, states[0]) {
				t.Errorf("partition %d: %s's snapshot holds another sampler than %s's", p, jobs[i+1].id, jobs[0].id)
			}
		}
	}
}

// TestCheckpointDuringCatchUpSpliceIsStable: five late registrations
// catch up behind the plane while records keep arriving, splice onto it
// and fold into the group there, while every query is checkpointed in a
// loop. Every checkpoint decodes whole, and each shard's record count is
// its offset. Each late query is checkpointed behind the plane, and
// restored from the last such checkpoint it then consumes every record
// once: none lost, none counted twice.
func TestCheckpointDuringCatchUpSpliceIsStable(t *testing.T) {
	bk := broker.New()
	if err := bk.CreateTopic("in", 2); err != nil {
		t.Fatal(err)
	}
	events := makeEvents(71, 96000)
	half := len(events) / 2
	if _, err := produceEvents(bk, "in", events[:half]); err != nil {
		t.Fatal(err)
	}
	bc := newBacklogCluster(bk)
	s, err := New(Config{Cluster: bc, Topic: "in", PollBackoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	specs := groupSpecs(6)
	jobs := registerAll(t, s, specs[:1])
	waitJobRecords(t, jobs[0], int64(half), 10*time.Second)

	stop, done := make(chan struct{}), make(chan struct{})
	behind := map[string]*checkpointFile{} // each query's last checkpoint taken behind the plane
	var failed error
	var passes atomic.Int64 // passes over every query
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, j := range s.jobs() {
				cf, err := j.checkpoint()
				var back checkpointFile
				if err == nil {
					var data []byte
					if data, err = json.Marshal(cf); err == nil {
						err = json.Unmarshal(data, &back)
					}
				}
				var records int64
				for _, sc := range back.Shards {
					if err == nil {
						_, err = pane.Decode(sc.Session)
					}
					if err == nil && sc.Records != sc.Offset {
						err = fmt.Errorf("%s shard %d: %d records below offset %d", j.id, sc.Partition, sc.Records, sc.Offset)
					}
					records += sc.Records
				}
				if err != nil {
					failed = err
					return
				}
				if records < int64(half) {
					behind[j.id] = &back
				}
			}
			passes.Add(1)
		}
	}()
	// The late queries register while the read behind the plane is held
	// after its first two rounds, so checkpoints land on them mid-way
	// through the backlog; two passes after both partitions' reads are
	// held, it is released.
	bc.let.Store(2)
	bc.hold()
	defer bc.release()
	jobs = append(jobs, registerAll(t, s, specs[1:])...)
	for stop := time.Now().Add(10 * time.Second); bc.behind.Load() < 2; {
		if time.Now().After(stop) {
			t.Fatalf("%d of 2 partitions hold a read behind the plane", bc.behind.Load())
		}
		time.Sleep(time.Millisecond)
	}
	for p, stop := passes.Load(), time.Now().Add(10*time.Second); passes.Load() < p+2; {
		select {
		case <-done:
			t.Fatal(failed)
		case <-time.After(time.Millisecond):
		}
		if time.Now().After(stop) {
			t.Fatalf("%d checkpoint passes in 10 s with the read behind the plane held", passes.Load()-p)
		}
	}
	bc.release()
	if _, err := produceEvents(bk, "in", events[half:]); err != nil {
		t.Fatal(err)
	}
	for _, j := range jobs {
		waitJobRecords(t, j, int64(len(events)), 15*time.Second)
	}
	waitGauges(t, s, float64(len(specs)), 1)
	close(stop)
	<-done
	if failed != nil {
		t.Fatal(failed)
	}
	if len(behind) < len(specs)-1 {
		t.Fatalf("%d of %d late queries checkpointed behind the plane", len(behind), len(specs)-1)
	}
	t.Logf("%d late queries checkpointed behind the plane", len(behind))

	dir := t.TempDir()
	for id, cf := range behind {
		if err := storage.SaveJSON(checkpointPath(dir, id), cf, false); err != nil {
			t.Fatal(err)
		}
	}
	s2, err := New(Config{Cluster: bk, Topic: "in", PollBackoff: time.Millisecond, CheckpointDir: dir, CheckpointEvery: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	var restored []*job
	for id := range behind {
		j, ok := s2.job(id)
		if !ok {
			t.Fatalf("%s not restored", id)
		}
		restored = append(restored, j)
		waitJobRecords(t, j, int64(len(events)), 15*time.Second)
	}
	time.Sleep(20 * time.Millisecond)
	for _, j := range restored {
		if n := jobRecords(j); n != int64(len(events)) {
			t.Errorf("restored %s consumed %d records, want exactly %d", j.id, n, len(events))
		}
	}
}
