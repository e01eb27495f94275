package broker

import (
	"bytes"
	"strings"
	"sync"
	"testing"
	"time"

	"streamapprox/internal/broker/storage"
	"streamapprox/internal/faults"
)

// Tests for the group-commit replication path: the multi-partition
// replicate codec, per-partition epoch fencing on the follower, batch
// re-drive when a follower blackholes mid-batch, and the one-section
// backfill of a short-acked section.

// ---- codec ----

func TestClusterReplicateMFCodecRoundTrip(t *testing.T) {
	secs := []replSection{
		{
			topic:     "alpha",
			partition: 3,
			base:      100,
			committed: 98,
			metas:     []batchMeta{{pid: 7, seq: 2, base: 100, end: 103}},
			frames:    storage.AppendRecordFrames(nil, keylessRecs(0, 3)),
			count:     3,
		},
		{
			topic:     "beta",
			partition: 0,
			base:      0,
			committed: 0,
			frames:    storage.AppendRecordFrames(nil, keylessRecs(50, 2)),
			count:     2,
		},
	}
	fb := getFrame()
	defer putFrame(fb)
	encodeReplicateMFReq(fb, 42, 9, 17, "n0", secs)
	req, err := decodeBinRequest(fb.b)
	if err != nil {
		t.Fatalf("decode replicateMF: %v", err)
	}
	if req.op != binOpReplicateMF || req.corr != 42 || req.trace != 9 ||
		req.epoch != 17 || req.sender != "n0" {
		t.Fatalf("decoded header: %+v", req)
	}
	if len(req.sections) != len(secs) {
		t.Fatalf("decoded %d sections, want %d", len(req.sections), len(secs))
	}
	for i, want := range secs {
		got := req.sections[i]
		if got.topic != want.topic || got.partition != want.partition ||
			got.base != want.base || got.committed != want.committed ||
			got.count != want.count {
			t.Fatalf("section %d mangled: %+v -> %+v", i, want, got)
		}
		if string(got.frames) != string(want.frames) {
			t.Fatalf("section %d frame bytes differ", i)
		}
		if len(got.metas) != len(want.metas) {
			t.Fatalf("section %d: %d metas, want %d", i, len(got.metas), len(want.metas))
		}
		for j, bm := range want.metas {
			if got.metas[j] != bm {
				t.Fatalf("section %d meta %d: %+v -> %+v", i, j, bm, got.metas[j])
			}
		}
	}

	// The decoder is the single validation gate: a corrupted frame byte
	// inside any section must reject the whole request.
	fb2 := getFrame()
	defer putFrame(fb2)
	encodeReplicateMFReq(fb2, 43, 0, 17, "n0", secs)
	fb2.b[len(fb2.b)-1] ^= 0xff // last byte of the last section's frames
	if _, err := decodeBinRequest(fb2.b); err == nil {
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

	// A batch at a high epoch lands normally and records the fence.
	secs := []replSection{{
		topic: "t", partition: 0, base: 0, committed: 0,
		frames: storage.AppendRecordFrames(nil, keylessRecs(0, 3)), count: 3,
	}}
	hwms, err := fn.applyReplicateBatch(100, leader, secs)
	if err != nil {
		t.Fatalf("apply batch at epoch 100: %v", err)
	}
	if len(hwms) != 1 || hwms[0] != 3 {
		t.Fatalf("hwms = %v, want [3]", hwms)
	}

	// A later batch at a LOWER epoch for the same partition is a stale
	// session delivering after a takeover: fenced, nothing appended.
	stale := []replSection{{
		topic: "t", partition: 0, base: 3, committed: 3,
		frames: storage.AppendRecordFrames(nil, keylessRecs(100, 2)), count: 2,
	}}
	if _, err := fn.applyReplicateBatch(99, leader, stale); err == nil ||
		!strings.Contains(err.Error(), "fenced") {
		t.Fatalf("stale-epoch batch: err = %v, want fenced", err)
	}
	hwm, err := tc.brokers[fi].HighWatermark("t", 0)
	if err != nil {
		t.Fatal(err)
	}
	if hwm != 3 {
		t.Fatalf("fenced batch changed the log: hwm = %d, want 3", hwm)
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
// promises, whichever path (batch, re-drive, backfill) carried them.
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

// ---- chaos: blackholed follower mid-batch ----

func TestClusterBlackholedFollowerBatchRequeued(t *testing.T) {
	// n0's replication to n1 runs through a fault proxy. FailAfter is
	// huge so n1 is never declared dead: the ack requirement stays at 2
	// and a swallowed batch must surface as a produce error, not a
	// silently under-replicated success.
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
	// replication sessions are live.
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
	// concurrently: the session coalesces what is queued, the batched
	// RPC times out, and EVERY parked producer in the drain must see
	// the failure.
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
	// batch — no loss, no duplication.
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
	// the hole with a one-section replicate batch.
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
