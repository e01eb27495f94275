package broker

import (
	"bytes"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"streamapprox/internal/broker/storage"
	"streamapprox/internal/faults"
	"streamapprox/internal/metrics"
)

// Tests for the replicate path: the section codec, per-partition epoch
// fencing on the follower, a swallowed replicate surfacing as a produce
// error, the backfill of a short-acked section, one stalled round
// counting as one miss, and concurrent producers on one partition.

// ---- codec ----

func TestClusterReplicateMFCodecRoundTrip(t *testing.T) {
	sec := replSection{
		base:      100,
		committed: 98,
		metas:     []batchMeta{{pid: 7, seq: 2, base: 100, end: 103}, {pid: 8, seq: 1, base: 90, end: 101}},
		frames:    storage.AppendRecordFrames(nil, keylessRecs(0, 3)),
		count:     3,
	}
	same := func(what string, got replSection) {
		t.Helper()
		if got.base != sec.base || got.committed != sec.committed || got.count != sec.count ||
			!bytes.Equal(got.frames, sec.frames) || !slices.Equal(got.metas, sec.metas) {
			t.Fatalf("%s mangled the section: %+v -> %+v", what, sec, got)
		}
	}
	fb := getFrame()
	defer putFrame(fb)
	encodeReplicateReq(fb, 42, 9, 17, "n0", "alpha", 3, &sec)
	req, err := decodeBinRequest(fb.b)
	if err != nil {
		t.Fatalf("decode replicate: %v", err)
	}
	if req.op != binOpReplicate || req.corr != 42 || req.trace != 9 || req.epoch != 17 ||
		req.sender != "n0" || req.topic != "alpha" || req.partition != 3 {
		t.Fatalf("decoded header: %+v", req)
	}
	same("replicate", req.sec)

	// A replica fetch answers with the same section layout.
	at := beginSectionResp(fb, 43, sec.base, sec.committed, sec.metas)
	fb.b = append(fb.b, sec.frames...)
	patchFrameCount(fb, at, sec.count)
	cur, err := decodeRespHeader(fb)
	if err != nil {
		t.Fatal(err)
	}
	var got replSection
	if got.decode(&cur); cur.err != nil {
		t.Fatalf("decode replica fetch answer: %v", cur.err)
	} else {
		same("replica fetch", got)
	}

	// The decoder is the single validation gate: a corrupted frame byte
	// must reject the whole request.
	encodeReplicateReq(fb, 44, 0, 17, "n0", "alpha", 3, &sec)
	fb.b[len(fb.b)-1] ^= 0xff // last byte of the frames
	if _, err := decodeBinRequest(fb.b); err == nil {
		t.Fatal("corrupted section frames decoded without error")
	}
}

// TestReplicateAppendTrimsPrefixMidBatch: a section overlapping what the
// follower already holds is trimmed at the RECORD the follower's log ends
// at, wherever in a batch that falls; the rest lands at the right offsets.
func TestReplicateAppendTrimsPrefixMidBatch(t *testing.T) {
	b := New()
	defer b.Close()
	if err := b.CreateTopic("t", 1); err != nil {
		t.Fatal(err)
	}
	appendPart(t, b, "t", 0, keylessRecs(0, 7))
	p, err := b.partition("t", 0)
	if err != nil {
		t.Fatal(err)
	}
	// Base 3: records 3..6 are duplicates, and the first batch (3..12)
	// straddles the follower's watermark.
	section := storage.AppendRecordFrames(storage.AppendRecordFrames(nil, keylessRecs(3, 10)), keylessRecs(13, 5))
	for _, again := range []bool{false, true} { // the second delivery is wholly duplicate
		hwm, err := p.replicateAppend(3, section, 15)
		if err != nil || hwm != 18 {
			t.Fatalf("replicateAppend (redelivery %v) = hwm %d, %v; want 18", again, hwm, err)
		}
	}
	got, err := b.Fetch("t", 0, 0, 100)
	if err != nil || len(got) != 18 {
		t.Fatalf("fetched %d records, %v", len(got), err)
	}
	for i, r := range got {
		if r.Offset != int64(i) || r.Value != float64(i) {
			t.Fatalf("record %d = %+v", i, r)
		}
	}
}

// ---- follower-side fencing ----

func TestClusterBatchFencesStaleEpoch(t *testing.T) {
	tc := startCluster(t, 2, nil)
	cc := tc.dialCluster()
	if err := cc.CreateTopic("t", 1); err != nil {
		t.Fatal(err)
	}
	leader := tc.nodes[0].leaderFor(nodePart(t, tc.nodes[0], "t", 0))
	if leader == "" {
		t.Fatal("no leader for t/0")
	}
	fi := 1 - tc.indexOf(leader) // the follower's slot in a 2-member cluster
	fn := tc.nodes[fi]

	// A replicate at a high epoch lands normally and records the fence.
	sec := replSection{base: 0, committed: 0, frames: storage.AppendRecordFrames(nil, keylessRecs(0, 3)), count: 3}
	if hwm, err := fn.applyReplicate(100, leader, "t", 0, sec); err != nil || hwm != 3 {
		t.Fatalf("apply at epoch 100: hwm %d, %v; want 3", hwm, err)
	}

	// A later replicate at a LOWER epoch for the same partition is a
	// deposed leader's delivering after a takeover: fenced, nothing
	// appended.
	stale := replSection{base: 3, committed: 3, frames: storage.AppendRecordFrames(nil, keylessRecs(100, 2)), count: 2}
	if _, err := fn.applyReplicate(99, leader, "t", 0, stale); err == nil ||
		!strings.Contains(err.Error(), "fenced") {
		t.Fatalf("stale-epoch replicate: err = %v, want fenced", err)
	}
	hwm, err := tc.brokers[fi].HighWatermark("t", 0)
	if err != nil {
		t.Fatal(err)
	}
	if hwm != 3 {
		t.Fatalf("fenced replicate changed the log: hwm = %d, want 3", hwm)
	}
}

// ---- pair harness ----

// pairCluster is a bespoke 2-member cluster where each member's peer
// address map can differ — the knob startCluster does not expose (a
// fault proxy on one replication direction).
type pairCluster struct {
	brokers [2]*Broker
	servers [2]*Server
	nodes   [2]*ClusterNode
	addrs   [2]string
	proxy   *faults.Proxy // nil unless proxyN0toN1
}

type pairOpts struct {
	proxyN0toN1 bool // route n0's peer traffic to n1 through a fault proxy
	tune        func(*NodeConfig)
}

func startPair(t *testing.T, o pairOpts) *pairCluster {
	t.Helper()
	pc := &pairCluster{}
	for i := 0; i < 2; i++ {
		b := New()
		srv, err := ServeWithOptions(b, "127.0.0.1:0", ServerOptions{})
		if err != nil {
			t.Fatal(err)
		}
		pc.brokers[i] = b
		pc.servers[i] = srv
		pc.addrs[i] = srv.Addr()
	}
	real := map[string]string{"n0": pc.addrs[0], "n1": pc.addrs[1]}
	peers0 := real
	if o.proxyN0toN1 {
		proxy, err := faults.NewProxy("127.0.0.1:0", pc.addrs[1])
		if err != nil {
			t.Fatal(err)
		}
		pc.proxy = proxy
		peers0 = map[string]string{"n0": pc.addrs[0], "n1": proxy.Addr()}
	}
	for i := 0; i < 2; i++ {
		peers := real
		if i == 0 {
			peers = peers0
		}
		cfg := NodeConfig{
			ID:             []string{"n0", "n1"}[i],
			Peers:          peers,
			Replicas:       2,
			MinISR:         2,
			HeartbeatEvery: 10 * time.Millisecond,
			FailAfter:      2,
		}
		if o.tune != nil {
			o.tune(&cfg)
		}
		node, err := NewClusterNode(pc.brokers[i], cfg)
		if err != nil {
			t.Fatal(err)
		}
		pc.servers[i].AttachNode(node)
		pc.nodes[i] = node
	}
	for _, n := range pc.nodes {
		n.Start()
	}
	t.Cleanup(func() {
		for i := 0; i < 2; i++ {
			pc.nodes[i].Close()
			pc.servers[i].Close()
			pc.brokers[i].Close()
		}
		if pc.proxy != nil {
			_ = pc.proxy.Close()
		}
	})
	return pc
}

func (pc *pairCluster) dial(t *testing.T) *ClusterClient {
	t.Helper()
	cc, err := DialClusterWithOptions(pc.addrs[:], ClusterClientOptions{
		Retries: 20,
		Backoff: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = cc.Close() })
	return cc
}

func waitNotJoining(t testing.TB, tc *testCluster) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		joining := false
		for _, n := range tc.nodes {
			if n.isJoining() {
				joining = true
			}
		}
		if !joining {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("cluster members still joining")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// assertLogsIdentical compares two brokers' raw partition logs: same
// high watermark and byte-identical frames — what verbatim replication
// promises, whichever path (replicate, re-drive, backfill) carried them.
func assertLogsIdentical(t *testing.T, a, b *Broker, topic string, partition int) {
	t.Helper()
	ha, err := a.HighWatermark(topic, partition)
	if err != nil {
		t.Fatal(err)
	}
	hb, err := b.HighWatermark(topic, partition)
	if err != nil {
		t.Fatal(err)
	}
	if ha != hb {
		t.Fatalf("p%d: high watermarks differ: %d vs %d", partition, ha, hb)
	}
	fa, na, err := a.fetchFrames(topic, partition, 0, int(ha), nil)
	if err != nil {
		t.Fatal(err)
	}
	fb, nb, err := b.fetchFrames(topic, partition, 0, int(hb), nil)
	if err != nil {
		t.Fatal(err)
	}
	if int64(na) != ha || na != nb || !bytes.Equal(fa, fb) {
		t.Fatalf("p%d: logs differ: %d records/%d bytes vs %d records/%d bytes", partition, na, len(fa), nb, len(fb))
	}
}

// ---- chaos: blackholed follower ----

// TestClusterSwallowedReplicateFailsProduce: n0's replication to n1 runs
// through a fault proxy. FailAfter is huge so n1 is never declared dead:
// the ack requirement stays at 2 and a swallowed replicate must surface
// as a produce error, not a silently under-replicated success. A retry
// of the same batch after the heal lands once, and a short ack is
// backfilled.
func TestClusterSwallowedReplicateFailsProduce(t *testing.T) {
	pc := startPair(t, pairOpts{
		proxyN0toN1: true,
		tune: func(cfg *NodeConfig) {
			cfg.FailAfter = 1000
			cfg.RPCTimeout = 250 * time.Millisecond
		},
	})
	cc := pc.dial(t)
	if err := cc.CreateTopic("t", 16); err != nil {
		t.Fatal(err)
	}

	// Pick two partitions led by n0 — their replication crosses the
	// proxy. Placement is rendezvous-deterministic once both members
	// are in each other's live view, so poll for the membership to
	// settle rather than racing the first heartbeats.
	var mine []int
	deadline := time.Now().Add(5 * time.Second)
	for len(mine) < 2 {
		mine = mine[:0]
		for p := 0; p < 16 && len(mine) < 2; p++ {
			if pc.nodes[0].leaderFor(nodePart(t, pc.nodes[0], "t", p)) == "n0" {
				mine = append(mine, p)
			}
		}
		if len(mine) < 2 {
			if time.Now().After(deadline) {
				t.Fatalf("n0 leads %d of 16 partitions, need 2", len(mine))
			}
			time.Sleep(10 * time.Millisecond)
		}
	}

	cli, err := dial(pc.addrs[0], DefaultDialTimeout, defaultRequestTimeout)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = cli.Close() })

	// Warm up each partition (seq 1) until the cluster settles and the
	// peer connection is live.
	const pid = 7777
	for _, p := range mine {
		deadline := time.Now().Add(5 * time.Second)
		for {
			if _, err := producePart(cli, "t", p, pid, 1, keylessRecs(p*1000, 10)); err == nil {
				break
			} else if time.Now().After(deadline) {
				t.Fatalf("warmup produce p%d: %v", p, err)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}

	// Blackhole the follower and fire one produce per partition
	// concurrently: every replicate times out, and EVERY producer must
	// see the failure.
	pc.proxy.Set(faults.Both, faults.Faults{Blackhole: true})
	var wg sync.WaitGroup
	errs := make([]error, len(mine))
	for i, p := range mine {
		wg.Add(1)
		go func(i, p int) {
			defer wg.Done()
			_, errs[i] = producePart(cli, "t", p, pid, 2, keylessRecs(p*1000+10, 10))
		}(i, p)
	}
	wg.Wait()
	for i, p := range mine {
		if errs[i] == nil {
			t.Fatalf("produce p%d acked while the follower was blackholed", p)
		}
	}

	// Heal and retry the SAME (pid, seq) batches: the leader's dedup
	// journal re-drives the already-appended range, and the idempotent
	// follower append absorbs any late-delivered bytes from the stalled
	// replicate — no loss, no duplication.
	pc.proxy.Heal()
	for _, p := range mine {
		deadline := time.Now().Add(10 * time.Second)
		for {
			if _, err := producePart(cli, "t", p, pid, 2, keylessRecs(p*1000+10, 10)); err == nil {
				break
			} else if time.Now().After(deadline) {
				t.Fatalf("retry produce p%d: %v", p, err)
			}
			time.Sleep(20 * time.Millisecond)
		}
	}

	// The short-ack case: slip a chunk into the leader's log that
	// replication never saw (a push that failed mid-produce), then
	// produce normally. The next chunk's base is past the follower's
	// watermark, the follower acks short, and the leader must backfill
	// the hole.
	for _, p := range mine {
		hole := keylessRecs(p*1000+20, 10)
		base := appendPart(t, pc.brokers[0], "t", p, hole)
		pc.nodes[0].noteBatch(nodePart(t, pc.nodes[0], "t", p), batchMeta{pid: 8888, seq: 1, base: base, end: base + 10})
		if _, err := producePart(cli, "t", p, pid, 3, keylessRecs(p*1000+30, 10)); err != nil {
			t.Fatalf("produce p%d over the hole: %v", p, err)
		}
	}

	for _, p := range mine {
		assertLogsIdentical(t, pc.brokers[0], pc.brokers[1], "t", p)
		recs, err := pc.brokers[0].Fetch("t", p, 0, 1000)
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) != 40 {
			t.Fatalf("p%d holds %d records, want 40 (10 warmup + 10 retried + 10 hole + 10 after)", p, len(recs))
		}
		seen := make(map[float64]int)
		for _, r := range recs {
			seen[r.Value]++
		}
		for v, n := range seen {
			if n != 1 {
				t.Fatalf("p%d: value %v appears %d times", p, v, n)
			}
		}
	}
}

// TestCommittedRetryIsNotReplicated: a producer that retries its last
// batch after the batch committed — the committed mark exactly at the
// batch's end — gets the batch acked as a duplicate: no replicate RPC is
// sent and nothing is appended.
func TestCommittedRetryIsNotReplicated(t *testing.T) {
	pc := startPair(t, pairOpts{})
	reg := metrics.NewRegistry()
	pc.nodes[0].RegisterMetrics(reg)
	cc := pc.dial(t)
	if err := cc.CreateTopic("t", 8); err != nil {
		t.Fatal(err)
	}
	p := -1
	for deadline := time.Now().Add(5 * time.Second); p < 0; time.Sleep(10 * time.Millisecond) {
		for q := 0; q < 8 && p < 0; q++ {
			if pc.nodes[0].leaderFor(nodePart(t, pc.nodes[0], "t", q)) == "n0" {
				p = q
			}
		}
		if p < 0 && time.Now().After(deadline) {
			t.Fatal("n0 leads none of 8 partitions")
		}
	}
	cli, err := dial(pc.addrs[0], DefaultDialTimeout, defaultRequestTimeout)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = cli.Close() })
	const pid = 4242
	recs := keylessRecs(0, 10)
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		if _, err := producePart(cli, "t", p, pid, 1, recs); err == nil {
			break
		} else if time.Now().After(deadline) {
			t.Fatalf("produce p%d: %v", p, err)
		}
	}
	ps := nodePart(t, pc.nodes[0], "t", p)
	if last, _ := pc.nodes[0].lastSeq(ps, pid); ps.committed.Load() != last.end {
		t.Fatalf("committed %d, the batch ends at %d", ps.committed.Load(), last.end)
	}
	sent := reg.Counter("broker_replicate_batches_total", "", metrics.Labels{"follower": "n1"})
	before := sent.Value()
	if n, err := producePart(cli, "t", p, pid, 1, recs); err != nil || n != len(recs) {
		t.Fatalf("retry of the committed batch: %d acked, %v", n, err)
	}
	if after := sent.Value(); after != before || before == 0 {
		t.Errorf("the retry sent %v replicate RPCs (%v before it)", after-before, before)
	}
	if got, err := pc.brokers[0].Fetch("t", p, 0, 100); err != nil || len(got) != len(recs) {
		t.Errorf("p%d holds %d records after the retry, want %d: %v", p, len(got), len(recs), err)
	}
}

// ---- failure detection: one stalled round ----

// TestStalledRoundIsOneMiss: concurrent produces whose replicates to one
// blackholed follower time out together are one probe of the follower,
// not one each. With FailAfter 3 and heartbeats stretched so probes
// never count, four such replicates must leave the follower alive.
func TestStalledRoundIsOneMiss(t *testing.T) {
	pc := startPair(t, pairOpts{
		proxyN0toN1: true,
		tune: func(cfg *NodeConfig) {
			cfg.FailAfter = 3
			cfg.HeartbeatEvery = time.Hour
			cfg.RPCTimeout = 500 * time.Millisecond
		},
	})
	cc := pc.dial(t)
	if err := cc.CreateTopic("t", 8); err != nil {
		t.Fatal(err)
	}
	// Poll until n0 has joined and leads one of the partitions.
	part := -1
	for deadline := time.Now().Add(5 * time.Second); part < 0; time.Sleep(10 * time.Millisecond) {
		for p := 0; p < 8 && part < 0; p++ {
			if pc.nodes[0].leaderFor(nodePart(t, pc.nodes[0], "t", p)) == "n0" {
				part = p
			}
		}
		if part < 0 && time.Now().After(deadline) {
			t.Fatal("n0 leads none of 8 partitions")
		}
	}
	const producers = 4
	clis := make([]*client, producers)
	for i := range clis {
		cli, err := dial(pc.addrs[0], DefaultDialTimeout, defaultRequestTimeout)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = cli.Close() })
		clis[i] = cli
	}
	// A warm-up produce proves the follower alive and opens the
	// connection the stalled round shares.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := producePart(clis[0], "t", part, 1, 1, keylessRecs(0, 10)); err == nil {
			break
		} else if time.Now().After(deadline) {
			t.Fatalf("warm-up produce: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}

	pc.proxy.Set(faults.Both, faults.Faults{Blackhole: true})
	var wg sync.WaitGroup
	errs := make([]error, producers)
	for i, cli := range clis {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[i] = producePart(cli, "t", part, uint64(10+i), 1, keylessRecs(100*(i+1), 10))
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err == nil {
			t.Fatalf("producer %d acked while the follower was blackholed", i)
		}
	}
	n0 := pc.nodes[0]
	n0.mu.Lock()
	st, miss := n0.peers["n1"].st, n0.peers["n1"].miss
	n0.mu.Unlock()
	if st.Dead {
		t.Fatalf("%d replicates stalled together declared the follower dead (FailAfter 3)", producers)
	}
	t.Logf("%d stalled replicates counted %d miss(es)", producers, miss)
}

// ---- concurrent producers on one partition ----

// TestConcurrentProducersOneRF2Partition: several producers write one
// RF2 partition at once, so their replicates reach the follower in any
// order and short acks are backfilled. Every record is acked and stored
// once, and both replicas hold byte-identical logs.
func TestConcurrentProducersOneRF2Partition(t *testing.T) {
	tc := startCluster(t, 2, nil)
	if err := tc.dialCluster().CreateTopic("t", 1); err != nil {
		t.Fatal(err)
	}
	const producers, batches, per = 6, 25, 20
	var wg sync.WaitGroup
	errs := make([]error, producers)
	for i := range producers {
		cc := tc.dialCluster()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for b := range batches {
				v0 := (i*batches + b) * per
				if _, err := cc.Produce("t", keylessRecs(v0, per)); err != nil {
					errs[i] = err
					return
				}
			}
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("producer %d: %v", i, err)
		}
	}
	got := fetchAllValues(t, tc.dialCluster(), "t")
	if total := producers * batches * per; len(got) != total {
		t.Fatalf("stored %d distinct values, want %d", len(got), total)
	}
	for v, n := range got {
		if n != 1 {
			t.Fatalf("value %v stored %d times", v, n)
		}
	}
	assertLogsIdentical(t, tc.brokers[0], tc.brokers[1], "t", 0)
}
