package server

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"streamapprox/internal/broker"
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
// checkpoint still returns at once and writes every file, and so does
// Close. The server is wired as saproxd wires it: each partition loop
// on a connection of its own, which Close closes under a fetch it may
// be retrying.
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
	for _, name := range []string{ingestStateFile, id + ".json"} {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Errorf("checkpoint with the broker down: %v", err)
		}
	}
	start = time.Now()
	s.Close()
	if took := time.Since(start); took >= time.Second {
		t.Errorf("Close with the broker down took %v; want < 1s", took)
	}
}

// TestSharedPlaneRestartNoLossNoDup is the shared-ingest recovery
// property: kill a server mid-window with three active queries plus
// one late-registered query (attached through the catch-up path),
// restart from the checkpoint directory, feed the rest of the stream,
// and assert that EVERY query accounts for every produced record
// exactly once and serves no window twice — the split into shared
// partition offsets and per-query delivery watermarks must make
// restart loss- and duplication-free even for queries that were behind
// the plane when the checkpoint was cut.
func TestSharedPlaneRestartNoLossNoDup(t *testing.T) {
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
	specs := []Spec{
		{Kind: "sum", Window: 2 * time.Second, Slide: time.Second, Fraction: 0.5},
		{Kind: "mean", Window: 3 * time.Second, Slide: time.Second, Fraction: 0.6},
		{Kind: "count", Window: 2 * time.Second, Slide: 2 * time.Second, Fraction: 0.4},
		// The sum's same-config peer: the two share a sampler when cut.
		{Kind: "count", Window: 3 * time.Second, Slide: time.Second, Fraction: 0.5, Seed: 3},
	}
	var ids []string
	for _, sp := range specs {
		id, err := s1.Register(sp)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	// Let the three early queries get ahead, then register a late one
	// from the beginning: it restores mid-catch-up if the kill lands
	// while it is still chasing the plane.
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
	lateID, err := s1.Register(Spec{Kind: "sum", Window: 2 * time.Second, Slide: time.Second,
		Fraction: 0.5, From: "earliest", Seed: 5})
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
	for _, id := range ids {
		if _, ok := s2.job(id); !ok {
			t.Fatalf("query %s not restored", id)
		}
	}
	if _, err := produceEvents(b, "in", events[half:]); err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		j, _ := s2.job(id)
		deadline := time.Now().Add(15 * time.Second)
		for jobRecords(j) < int64(len(events)) {
			if time.Now().After(deadline) {
				t.Fatalf("query %s consumed %d of %d after restart", id, jobRecords(j), len(events))
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	// Settle, then assert exactly-once per query: over-delivery would
	// overshoot the record counters; a re-served window would reuse a
	// window start across the two runs.
	time.Sleep(100 * time.Millisecond)
	// The restored private sessions regroup: one sampler per key.
	waitGauges(t, s2, float64(len(ids)), 3)
	for _, id := range ids {
		j, _ := s2.job(id)
		if n := jobRecords(j); n != int64(len(events)) {
			t.Errorf("query %s consumed %d records across runs, want exactly %d", id, n, len(events))
		}
		if n := shardRecordsTotal(s2, j); n != int64(len(events)) {
			t.Errorf("query %s: saproxd_shard_records_total = %d across runs, want %d", id, n, len(events))
		}
		seen := map[time.Time]int64{}
		var maxSeq int64 = -1
		for _, r := range before[id] {
			seen[r.Start] = r.Seq
			if r.Seq > maxSeq {
				maxSeq = r.Seq
			}
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

// TestRestoreV1CheckpointNormalizesSpec rewrites a checkpoint into the
// version-1 shape (version 1, from "committed", as the pre-shared-plane
// release wrote) and restores it: the spec must come back re-normalized,
// equal to the one the query was registered with.
func TestRestoreV1CheckpointNormalizesSpec(t *testing.T) {
	dir := t.TempDir()
	b := broker.New()
	if err := b.CreateTopic("in", 2); err != nil {
		t.Fatal(err)
	}
	cfg := Config{Cluster: b, Topic: "in", CheckpointDir: dir,
		CheckpointEvery: time.Hour, PollBackoff: time.Millisecond}
	s1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	id, err := s1.Register(Spec{Kind: "sum", Window: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	j1, _ := s1.job(id)
	registered := j1.spec
	s1.Close()

	// Downgrade the file to v1: the version, and the From it wrote.
	path := checkpointPath(dir, id)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var raw map[string]any
	if err := json.Unmarshal(data, &raw); err != nil {
		t.Fatal(err)
	}
	raw["version"] = 1
	raw["spec"].(map[string]any)["from"] = "committed"
	if data, err = json.Marshal(raw); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o600); err != nil {
		t.Fatal(err)
	}

	s2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	j, ok := s2.job(id)
	if !ok {
		t.Fatalf("query %s not restored from v1 checkpoint", id)
	}
	if !reflect.DeepEqual(j.spec, registered) {
		t.Errorf("restored v1 spec = %+v, want the registered %+v", j.spec, registered)
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
// merger recovered each part's variance from its bound, by a server over
// four partitions of which the fourth fell silent at 3 s, closed as soon
// as every record was consumed: each of its four queries (sum, mean,
// groupby-mean, histogram at f = 0.05) checkpointed three windows holding
// three parts. checkpoint_v2_served.json holds the windows that commit's
// merger served from them on flush. Their parts carry no variance; the
// one-time upgrade on load must make them merge to the same windows, bit
// for bit.
func TestRestoreV2CheckpointServesParentWindows(t *testing.T) {
	cfs, err := loadCheckpoints("testdata/checkpoint_v2")
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile("testdata/checkpoint_v2_served.json")
	if err != nil {
		t.Fatal(err)
	}
	var served map[string][]MergedWindow
	if err := json.Unmarshal(data, &served); err != nil {
		t.Fatal(err)
	}
	if len(cfs) != 4 {
		t.Fatalf("%d checkpoints, want 4", len(cfs))
	}
	for _, cf := range cfs {
		if cf.Version != checkpointVersion {
			t.Errorf("%s: loaded as version %d, want %d", cf.ID, cf.Version, checkpointVersion)
		}
		if err := cf.Spec.normalize(); err != nil {
			t.Fatal(err)
		}
		m := newMerger(&cf.Spec, 4, nil)
		m.restore(cf)
		var got []MergedWindow
		for _, fw := range m.flush() {
			got = append(got, fw.result)
		}
		gotJSON, _ := json.Marshal(got)
		wantJSON, _ := json.Marshal(served[cf.ID])
		if len(served[cf.ID]) != 3 || !bytes.Equal(gotJSON, wantJSON) {
			t.Errorf("%s (%s): served\n%s\nwant\n%s", cf.ID, cf.Spec.Kind, gotJSON, wantJSON)
		}
	}
}
