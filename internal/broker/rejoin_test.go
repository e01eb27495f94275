package broker

// Restart/rejoin tests for the durable broker tier: a killed cluster
// member restarted with the same -data-dir must recover its segments,
// rejoin as a follower in a new status incarnation, truncate any log
// divergence, catch up, and re-enter the ISR — with no record lost or
// duplicated across the whole episode.

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"streamapprox/internal/broker/storage"
)

// durableCluster is an n-member broker cluster whose members keep
// their partition logs in per-member temp directories, so a killed
// member can be restarted against the same data.
type durableCluster struct {
	t       *testing.T
	brokers []*Broker
	servers []*Server
	nodes   []*ClusterNode
	ids     []string
	addrs   []string
	dirs    []string
	peers   map[string]string
	tune    func(*NodeConfig)
	killed  []bool
}

func startDurableCluster(t *testing.T, n int, tune func(*NodeConfig)) *durableCluster {
	t.Helper()
	dc := &durableCluster{t: t, tune: tune, killed: make([]bool, n), peers: make(map[string]string, n)}
	for i := 0; i < n; i++ {
		dir := t.TempDir()
		b, err := Open(StorageConfig{Dir: dir, Policy: storage.SyncAlways})
		if err != nil {
			t.Fatal(err)
		}
		srv, err := ServeWithOptions(b, "127.0.0.1:0", ServerOptions{})
		if err != nil {
			t.Fatal(err)
		}
		id := fmt.Sprintf("n%d", i)
		dc.peers[id] = srv.Addr()
		dc.brokers = append(dc.brokers, b)
		dc.servers = append(dc.servers, srv)
		dc.ids = append(dc.ids, id)
		dc.addrs = append(dc.addrs, srv.Addr())
		dc.dirs = append(dc.dirs, dir)
	}
	for i := 0; i < n; i++ {
		node, err := NewClusterNode(dc.brokers[i], dc.nodeConfig(i))
		if err != nil {
			t.Fatal(err)
		}
		dc.servers[i].AttachNode(node)
		dc.nodes = append(dc.nodes, node)
	}
	for _, node := range dc.nodes {
		node.Start()
	}
	t.Cleanup(func() {
		for i := range dc.servers {
			dc.kill(i)
		}
	})
	return dc
}

func (dc *durableCluster) nodeConfig(i int) NodeConfig {
	cfg := NodeConfig{
		ID:             dc.ids[i],
		Peers:          dc.peers,
		Replicas:       2,
		MinISR:         2,
		HeartbeatEvery: 10 * time.Millisecond,
		FailAfter:      2,
	}
	if dc.tune != nil {
		dc.tune(&cfg)
	}
	return cfg
}

// kill fail-stops one member. The broker is NOT flushed or closed:
// with the always-fsync policy everything acked is already on disk,
// exactly as after a kill -9.
func (dc *durableCluster) kill(i int) {
	if dc.killed[i] {
		return
	}
	dc.killed[i] = true
	dc.nodes[i].Close()
	dc.servers[i].Close()
}

// restart boots a member again from its data directory, on its
// original address (the static peer map names it).
func (dc *durableCluster) restart(i int) {
	dc.t.Helper()
	if !dc.killed[i] {
		dc.t.Fatal("restarting a live member")
	}
	b, err := Open(StorageConfig{Dir: dc.dirs[i], Policy: storage.SyncAlways})
	if err != nil {
		dc.t.Fatal(err)
	}
	node, err := NewClusterNode(b, dc.nodeConfig(i))
	if err != nil {
		dc.t.Fatal(err)
	}
	srv, err := ServeWithOptions(b, dc.addrs[i], ServerOptions{})
	if err != nil {
		dc.t.Fatal(err)
	}
	srv.AttachNode(node)
	node.Start()
	dc.brokers[i], dc.servers[i], dc.nodes[i] = b, srv, node
	dc.killed[i] = false
}

func (dc *durableCluster) indexOf(id string) int {
	for i, nid := range dc.ids {
		if nid == id {
			return i
		}
	}
	dc.t.Fatalf("unknown node id %q", id)
	return -1
}

func (dc *durableCluster) dialCluster() *ClusterClient {
	dc.t.Helper()
	cc, err := DialClusterWithOptions(dc.addrs, ClusterClientOptions{
		Retries: 25,
		Backoff: 5 * time.Millisecond,
	})
	if err != nil {
		dc.t.Fatal(err)
	}
	dc.t.Cleanup(func() { _ = cc.Close() })
	return cc
}

// waitConverged waits until both replicas of every partition hold the
// same log length.
func (dc *durableCluster) waitConverged(topic string, parts int) {
	dc.t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		ok := true
		for p := 0; p < parts; p++ {
			reps := replicasFor(topic, p, dc.ids, 2)
			h0, err0 := dc.brokers[dc.indexOf(reps[0])].HighWatermark(topic, p)
			h1, err1 := dc.brokers[dc.indexOf(reps[1])].HighWatermark(topic, p)
			if err0 != nil || err1 != nil || h0 != h1 {
				ok = false
				break
			}
		}
		if ok {
			return
		}
		if time.Now().After(deadline) {
			for p := 0; p < parts; p++ {
				reps := replicasFor(topic, p, dc.ids, 2)
				h0, _ := dc.brokers[dc.indexOf(reps[0])].HighWatermark(topic, p)
				h1, _ := dc.brokers[dc.indexOf(reps[1])].HighWatermark(topic, p)
				dc.t.Logf("partition %d: %s=%d %s=%d", p, reps[0], h0, reps[1], h1)
			}
			dc.t.Fatal("replicas never converged")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestDurableClusterRejoinAfterKill is the cluster-layer acceptance
// test of the storage refactor: kill a partition leader mid-stream,
// keep producing through the failover, restart the dead member from
// its data directory, and verify it rejoins as a follower, syncs its
// log, re-enters the ISR (RF2 produce needs both replicas again), and
// the full record set is exactly-once.
func TestDurableClusterRejoinAfterKill(t *testing.T) {
	dc := startDurableCluster(t, 3, nil)
	cc := dc.dialCluster()
	if err := cc.CreateTopic("t", 2); err != nil {
		t.Fatal(err)
	}
	const per = 100
	produce := func(from, to int) {
		t.Helper()
		for v := from; v < to; v += per {
			if _, err := cc.Produce("t", keylessRecs(v, per)); err != nil {
				t.Fatalf("produce at %d: %v", v, err)
			}
		}
	}
	produce(0, 2000)

	m, err := cc.Meta()
	if err != nil {
		t.Fatal(err)
	}
	victim := m.LeaderOf("t", 0)
	if victim == "" {
		t.Fatal("no leader for partition 0")
	}
	vi := dc.indexOf(victim)
	dc.kill(vi)
	produce(2000, 4000) // rides through detection + promotion

	dc.restart(vi)
	// The restarted member must re-enter: wait until every peer's view
	// has it alive and it leads partition 0 again (it is the first
	// rendezvous replica, so leadership falls back after the takeover
	// handshake).
	deadline := time.Now().Add(10 * time.Second)
	for {
		if err := cc.refreshMeta(); err == nil {
			if m, err := cc.Meta(); err == nil && m.LeaderOf("t", 0) == victim {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("restarted member never took its leadership back")
		}
		time.Sleep(10 * time.Millisecond)
	}
	produce(4000, 6000)

	got := fetchAllValues(t, cc, "t")
	if len(got) != 6000 {
		t.Fatalf("fetched %d distinct values, want 6000", len(got))
	}
	for v, c := range got {
		if c != 1 {
			t.Fatalf("value %v appears %d times", v, c)
		}
	}
	// ISR re-entry: both replicas of both partitions hold identical
	// logs again (MinISR=2 produce above already required the restarted
	// member's acks).
	dc.waitConverged("t", 2)
}

// TestDurableClusterFollowerRestartCatchesUp kills a FOLLOWER, streams
// more records, restarts it, and verifies it drains the gap (rejoin
// pull + push backfill) without disturbing the leader.
func TestDurableClusterFollowerRestartCatchesUp(t *testing.T) {
	dc := startDurableCluster(t, 3, nil)
	cc := dc.dialCluster()
	if err := cc.CreateTopic("t", 1); err != nil {
		t.Fatal(err)
	}
	if _, err := cc.Produce("t", keylessRecs(0, 1000)); err != nil {
		t.Fatal(err)
	}
	m, _ := cc.Meta()
	reps := replicasFor("t", 0, dc.ids, 2)
	follower := reps[1]
	if follower == m.LeaderOf("t", 0) {
		follower = reps[0]
	}
	fi := dc.indexOf(follower)
	dc.kill(fi)
	// Produce while the follower is down (MinISR shrinks after
	// detection), then bring it back and keep producing.
	for v := 1000; v < 3000; v += 100 {
		if _, err := cc.Produce("t", keylessRecs(v, 100)); err != nil {
			t.Fatalf("produce at %d: %v", v, err)
		}
	}
	dc.restart(fi)
	// Wait until the leader resurrects the follower in its view, so
	// the next produces require (and exercise) its acks again.
	li := dc.indexOf(m.LeaderOf("t", 0))
	deadline := time.Now().Add(10 * time.Second)
	for dc.nodes[li].isDead(dc.nodes[li].peers[follower]) {
		if time.Now().After(deadline) {
			t.Fatal("leader never resurrected the restarted follower")
		}
		time.Sleep(10 * time.Millisecond)
	}
	for v := 3000; v < 4000; v += 100 {
		if _, err := cc.Produce("t", keylessRecs(v, 100)); err != nil {
			t.Fatalf("produce at %d: %v", v, err)
		}
	}
	got := fetchAllValues(t, cc, "t")
	if len(got) != 4000 {
		t.Fatalf("fetched %d distinct values, want 4000", len(got))
	}
	dc.waitConverged("t", 1)
}

// TestPulledBatchesKeepTheirJournal: a replica that caught up by
// pulling holds the producer journal of the batches it pulled, so a
// retried batch is deduplicated there exactly as at a replica that was
// pushed the batch. Each case retries (pid, seq) at the member that
// pulled it: the high watermark does not move, and both replicas' logs
// stay byte-identical.
func TestPulledBatchesKeepTheirJournal(t *testing.T) {
	const pid, seq = 77, 1
	batch := keylessRecs(0, 10)
	t.Run("takeover", func(t *testing.T) {
		// The preferred leader dies, the batch is appended at the interim
		// leader, and the preferred leader pulls it while taking the
		// partition back.
		dc := startDurableCluster(t, 3, nil)
		dc.warmUp()
		reps := replicasFor("t", 0, dc.ids, 2)
		li, ii := dc.indexOf(reps[0]), dc.indexOf(reps[1])
		dc.kill(li)
		dc.producePartAt(ii, pid, seq, batch)
		dc.restart(li)
		dc.waitLeads(li)
		dc.retryKeepsWatermark(li, ii, pid, seq, batch)
	})
	t.Run("promoted follower", func(t *testing.T) {
		// A follower restarted behind pulls the batch at rejoin, then is
		// promoted when the leader dies.
		dc := startDurableCluster(t, 3, nil)
		dc.warmUp()
		reps := replicasFor("t", 0, dc.ids, 2)
		li, fi := dc.indexOf(reps[0]), dc.indexOf(reps[1])
		dc.kill(fi)
		dc.producePartAt(li, pid, seq, batch)
		dc.restart(fi)
		for deadline := time.Now().Add(10 * time.Second); dc.nodes[li].isDead(dc.nodes[li].peers[reps[1]]) || dc.nodes[fi].isJoining(); time.Sleep(10 * time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatal("the restarted follower never rejoined")
			}
		}
		dc.kill(li)
		dc.waitLeads(fi)
		dc.retryKeepsWatermark(fi, li, pid, seq, batch)
	})
}

// warmUp creates the one-partition topic t and produces to it through
// the routing client, so both replicas of t/0 have seen each other alive
// before a test kills one.
func (dc *durableCluster) warmUp() {
	dc.t.Helper()
	cc := dc.dialCluster()
	if err := cc.CreateTopic("t", 1); err != nil {
		dc.t.Fatal(err)
	}
	if _, err := cc.Produce("t", keylessRecs(1000, 5)); err != nil {
		dc.t.Fatal(err)
	}
}

// producePartAt produces one batch to partition t/0 at member i over a
// raw connection, retrying until that member leads and acks it.
func (dc *durableCluster) producePartAt(i int, pid, seq uint64, recs []Record) {
	dc.t.Helper()
	cli, err := dial(dc.addrs[i], DefaultDialTimeout, defaultRequestTimeout)
	if err != nil {
		dc.t.Fatal(err)
	}
	defer func() { _ = cli.Close() }()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		_, err := producePart(cli, "t", 0, pid, seq, recs)
		if err == nil {
			return
		}
		if time.Now().After(deadline) {
			dc.t.Fatalf("produce (%d, %d) at %s: %v", pid, seq, dc.ids[i], err)
		}
	}
}

// waitLeads waits until member i leads t/0 in its own view, with no
// takeover left pending.
func (dc *durableCluster) waitLeads(i int) {
	dc.t.Helper()
	n := dc.nodes[i]
	ps := nodePart(dc.t, n, "t", 0)
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		n.mu.Lock()
		leads := n.leaderLocked(ps, n.joining) == n.cfg.ID
		n.mu.Unlock()
		if leads {
			return
		}
		if time.Now().After(deadline) {
			dc.t.Fatalf("%s never led t/0", dc.ids[i])
		}
	}
}

// retryKeepsWatermark retries (pid, seq) at member i, which must answer
// it as a duplicate: its watermark stays put, and its log stays
// byte-identical to member j's.
func (dc *durableCluster) retryKeepsWatermark(i, j int, pid, seq uint64, recs []Record) {
	dc.t.Helper()
	before, err := dc.brokers[i].HighWatermark("t", 0)
	if err != nil {
		dc.t.Fatal(err)
	}
	dc.producePartAt(i, pid, seq, recs)
	if after, _ := dc.brokers[i].HighWatermark("t", 0); after != before {
		dc.t.Fatalf("retry of (%d, %d) at %s moved the high watermark %d -> %d", pid, seq, dc.ids[i], before, after)
	}
	assertLogsIdentical(dc.t, dc.brokers[i], dc.brokers[j], "t", 0)
}

// TestDurableSoloBrokerRestart pins the single durable broker: its
// topics and records recover across a restart,
// in process and served as a one-member cluster.
func TestDurableSoloBrokerRestart(t *testing.T) {
	dir := t.TempDir()
	b, err := Open(StorageConfig{Dir: dir, Policy: storage.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.CreateTopic("t", 2); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Produce("t", recs("a", 500)); err != nil {
		t.Fatal(err)
	}
	b.Close()

	re, err := Open(StorageConfig{Dir: dir, Policy: storage.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if parts, err := re.Partitions("t"); err != nil || parts != 2 {
		t.Fatalf("recovered partitions = %d, %v", parts, err)
	}
	total := 0
	for p := 0; p < 2; p++ {
		hwm, err := re.HighWatermark("t", p)
		if err != nil {
			t.Fatal(err)
		}
		rs, err := re.Fetch("t", p, 0, int(hwm)+10)
		if err != nil {
			t.Fatal(err)
		}
		if int64(len(rs)) != hwm {
			t.Fatalf("partition %d: fetched %d of %d", p, len(rs), hwm)
		}
		for i, r := range rs {
			if r.Offset != int64(i) || r.Topic != "t" || r.Partition != p {
				t.Fatalf("bad recovered record %+v at %d", r, i)
			}
		}
		total += len(rs)
	}
	if total != 500 {
		t.Fatalf("recovered %d records, want 500", total)
	}
	// A topic that exists already is reported as such (brokerd
	// tolerates this on restart).
	if err := re.CreateTopic("t", 2); err != ErrTopicExists {
		t.Fatalf("recreate recovered topic: %v", err)
	}

	// This directory holds segments but no cluster state,
	// as a broker served without a node left it. A one-member node
	// adopts it whole: nothing is truncated, every record is served.
	cc, err := DialCluster([]string{serveMember(t, re, ServerOptions{}).Addr()})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = cc.Close() }()
	if got := fetchAllValues(t, cc, "t"); len(got) != 500 {
		t.Fatalf("served %d distinct values of the 500 written without a node", len(got))
	}

	t.Run("served", testDurableMemberRestart)
}

// testDurableMemberRestart produces through the routing client into a
// durable one-member broker, abandons it without Close as a kill -9
// would, and reopens it under a new node: logs and watermarks recover,
// and a retry of the last producer sequence is recognised, not appended
// again.
func testDurableMemberRestart(t *testing.T) {
	dir := t.TempDir()
	open := func() *Server {
		t.Helper()
		b, err := Open(StorageConfig{Dir: dir, Policy: storage.SyncAlways})
		if err != nil {
			t.Fatal(err)
		}
		return serveMember(t, b, ServerOptions{})
	}
	srv := open()
	cc, err := DialCluster([]string{srv.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	if err := cc.CreateTopic("t", 2); err != nil {
		t.Fatal(err)
	}
	if _, err := cc.Produce("t", keylessRecs(0, 500)); err != nil {
		t.Fatal(err)
	}
	cli, err := dial(srv.Addr(), DefaultDialTimeout, defaultRequestTimeout)
	if err != nil {
		t.Fatal(err)
	}
	last := keylessRecs(500, 10)
	if _, err := producePart(cli, "t", 0, 99, 1, last); err != nil {
		t.Fatal(err)
	}
	hwm0, err := cc.HighWatermark("t", 0)
	if err != nil {
		t.Fatal(err)
	}
	_ = cli.Close()
	_ = cc.Close()
	srv.node.Load().Close()
	srv.Close() // the broker itself is abandoned, not closed

	srv = open()
	cc, err = DialCluster([]string{srv.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = cc.Close() }()
	if hwm, err := cc.HighWatermark("t", 0); err != nil || hwm != hwm0 {
		t.Fatalf("recovered partition 0 watermark = %d, %v; want %d", hwm, err, hwm0)
	}
	got := fetchAllValues(t, cc, "t")
	if len(got) != 510 {
		t.Fatalf("recovered %d distinct values, want 510", len(got))
	}
	for v, c := range got {
		if c != 1 {
			t.Fatalf("value %v recovered %d times", v, c)
		}
	}
	cli, err = dial(srv.Addr(), DefaultDialTimeout, defaultRequestTimeout)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = cli.Close() }()
	if _, err := producePart(cli, "t", 0, 99, 1, last); err != nil {
		t.Fatal(err)
	}
	if hwm, err := cc.HighWatermark("t", 0); err != nil || hwm != hwm0 {
		t.Fatalf("watermark after retrying the last sequence = %d, %v; want %d (appended again)", hwm, err, hwm0)
	}
}

// TestBrokerCrashRecoveryProperty is the crash-recovery property test:
// repeatedly "kill -9" a durable solo broker mid-stream (abandon it
// without closing, sometimes tearing the tail of a segment file by
// direct manipulation, as a crash mid-write would), restart it from
// the same directory, and assert that every acked record is served
// exactly once, at its original offset, with no duplicates — across
// many random batch patterns.
func TestBrokerCrashRecoveryProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	dir := t.TempDir()
	acked := 0
	b, err := Open(StorageConfig{Dir: dir, Policy: storage.SyncAlways, SegmentRecords: 128})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.CreateTopic("t", 1); err != nil {
		t.Fatal(err)
	}
	for iter := 0; iter < 25; iter++ {
		// Produce a random number of random-size batches.
		for rounds := rng.Intn(4); rounds >= 0; rounds-- {
			n := 1 + rng.Intn(300)
			if _, err := b.Produce("t", keylessRecs(acked, n)); err != nil {
				t.Fatal(err)
			}
			acked += n
		}
		// Crash: abandon the broker (no Close, no final sync), and in
		// some iterations tear the last segment's tail as an
		// interrupted write would.
		switch rng.Intn(3) {
		case 1:
			tearSegmentTail(t, b, rng, validFramePrefix)
		case 2:
			tearSegmentTail(t, b, rng, garbageBytes)
		}
		re, err := Open(StorageConfig{Dir: dir, Policy: storage.SyncAlways, SegmentRecords: 128})
		if err != nil {
			t.Fatalf("iteration %d: reopen: %v", iter, err)
		}
		hwm, err := re.HighWatermark("t", 0)
		if err != nil {
			t.Fatal(err)
		}
		if hwm != int64(acked) {
			t.Fatalf("iteration %d: recovered hwm %d, want %d acked", iter, hwm, acked)
		}
		seen := make(map[float64]bool, acked)
		for off := int64(0); off < hwm; {
			rs, err := re.Fetch("t", 0, off, 1000)
			if err != nil || len(rs) == 0 {
				t.Fatalf("iteration %d: fetch@%d: %d recs, %v", iter, off, len(rs), err)
			}
			for i, r := range rs {
				if r.Offset != off+int64(i) {
					t.Fatalf("iteration %d: offset %d at %d+%d", iter, r.Offset, off, i)
				}
				if seen[r.Value] {
					t.Fatalf("iteration %d: value %v served twice", iter, r.Value)
				}
				if int(r.Value) != int(r.Offset) {
					t.Fatalf("iteration %d: value %v at offset %d", iter, r.Value, r.Offset)
				}
				seen[r.Value] = true
			}
			off += int64(len(rs))
		}
		if len(seen) != acked {
			t.Fatalf("iteration %d: served %d distinct records, want %d", iter, len(seen), acked)
		}
		b = re
	}
	b.Close()
}

// validFramePrefix is a torn write: the first bytes of a well-formed
// batch frame (length + CRC + partial body), as a crash mid-write
// leaves behind.
func validFramePrefix(rng *rand.Rand) []byte {
	frame := storage.AppendRecordFrames(nil, []Record{{Key: "torn", Value: 99, Time: time.Now()}})
	return frame[:1+rng.Intn(len(frame)-1)]
}

// garbageBytes is a corrupt write: random bytes that parse as neither
// a frame header nor a payload.
func garbageBytes(rng *rand.Rand) []byte {
	buf := make([]byte, 1+rng.Intn(64))
	rng.Read(buf)
	return buf
}

// tearSegmentTail appends torn bytes to the newest segment file of the
// broker's only partition, simulating a write cut short by the crash.
func tearSegmentTail(t *testing.T, b *Broker, rng *rand.Rand, torn func(*rand.Rand) []byte) {
	t.Helper()
	entries, err := os.ReadDir(b.partitionDir("t", 0))
	if err != nil {
		t.Fatal(err)
	}
	last := ""
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".seg") && e.Name() > last {
			last = e.Name()
		}
	}
	if last == "" {
		return // nothing on disk yet
	}
	f, err := os.OpenFile(filepath.Join(b.partitionDir("t", 0), last), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = f.Close() }()
	if _, err := f.Write(torn(rng)); err != nil {
		t.Fatal(err)
	}
}

// readTree returns every regular file under root, by slash-separated
// path relative to root.
func readTree(t *testing.T, root string) map[string][]byte {
	t.Helper()
	files := make(map[string][]byte)
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, path)
		files[filepath.ToSlash(rel)] = data
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// TestParentDataDirOpensUntouched opens a durable data dir written by an
// earlier build — one topic of two partitions, four produce batches,
// each partition's state.json, and the groups.json that build kept
// consumer-group offsets in — twice, served as a one-member cluster.
// Every record is served under the persisted committed watermark, and
// every file, groups.json included, is byte-identical after each open:
// recovery rewrites a file only when its bytes are bad.
func TestParentDataDirOpensUntouched(t *testing.T) {
	want := readTree(t, filepath.Join("testdata", "parent-datadir"))
	if _, ok := want["groups.json"]; !ok || len(want) != 5 {
		t.Fatalf("fixture holds %d files; want 5 with groups.json", len(want))
	}
	dir := t.TempDir()
	for name, data := range want {
		path := filepath.Join(dir, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for open := 1; open <= 2; open++ {
		b, err := Open(StorageConfig{Dir: dir, Policy: storage.SyncAlways})
		if err != nil {
			t.Fatalf("open %d: %v", open, err)
		}
		probe, err := NewClusterNode(b, NodeConfig{ID: "n0", Peers: map[string]string{"n0": "127.0.0.1:0"}})
		if err != nil {
			t.Fatal(err)
		}
		for p := 0; p < 2; p++ {
			ps := nodePart(t, probe, "stream", p)
			probe.mu.Lock()
			committed := ps.remoteHWM
			probe.mu.Unlock()
			if committed != 12 {
				t.Fatalf("open %d: partition %d persisted committed watermark = %d, want 12", open, p, committed)
			}
		}
		probe.Close()

		srv := serveMember(t, b, ServerOptions{})
		cc, err := DialCluster([]string{srv.Addr()})
		if err != nil {
			t.Fatal(err)
		}
		for p := 0; p < 2; p++ {
			if hwm, err := cc.HighWatermark("stream", p); err != nil || hwm != 12 {
				t.Fatalf("open %d: partition %d serves watermark %d, %v; want 12", open, p, hwm, err)
			}
		}
		got := fetchAllValues(t, cc, "stream")
		for batch := 0; batch < 4; batch++ {
			for j := 0; j < 6; j++ {
				if v := float64(batch*10 + j); got[v] != 1 {
					t.Fatalf("open %d: value %v served %d times, want once", open, v, got[v])
				}
			}
		}
		if len(got) != 24 {
			t.Fatalf("open %d: served %d distinct values, want 24", open, len(got))
		}
		_ = cc.Close()
		srv.node.Load().Close()
		srv.Close()
		b.Close()

		after := readTree(t, dir)
		for name, data := range want {
			if !bytes.Equal(after[name], data) {
				t.Errorf("open %d: %s changed (%d bytes, was %d)", open, name, len(after[name]), len(data))
			}
		}
		for name := range after {
			if _, ok := want[name]; !ok {
				t.Errorf("open %d: left a new file %s", open, name)
			}
		}
	}
}
