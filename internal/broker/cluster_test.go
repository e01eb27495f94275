package broker

import (
	"fmt"
	"testing"
	"time"

	"streamapprox/internal/broker/storage"
	"streamapprox/internal/faults"
	"streamapprox/internal/metrics"
)

// ---- in-process cluster harness ----

// testCluster is N broker servers with attached cluster nodes, all on
// loopback listeners.
type testCluster struct {
	t       testing.TB
	brokers []*Broker
	servers []*Server
	nodes   []*ClusterNode
	regs    []*metrics.Registry // each server's request counts
	ids     []string
	addrs   []string
	killed  []bool
}

// startCluster boots an n-member cluster. All nodes are attached before
// any starts heartbeating, mirroring how the daemons come up.
func startCluster(t testing.TB, n int, tune func(*NodeConfig)) *testCluster {
	t.Helper()
	tc := &testCluster{t: t, killed: make([]bool, n)}
	peers := make(map[string]string, n)
	for i := 0; i < n; i++ {
		b := New()
		reg := metrics.NewRegistry()
		srv, err := ServeWithOptions(b, "127.0.0.1:0", ServerOptions{Metrics: reg})
		if err != nil {
			t.Fatal(err)
		}
		id := fmt.Sprintf("n%d", i)
		peers[id] = srv.Addr()
		tc.brokers = append(tc.brokers, b)
		tc.servers = append(tc.servers, srv)
		tc.regs = append(tc.regs, reg)
		tc.ids = append(tc.ids, id)
		tc.addrs = append(tc.addrs, srv.Addr())
	}
	for i := 0; i < n; i++ {
		cfg := NodeConfig{
			ID:             tc.ids[i],
			Peers:          peers,
			Replicas:       2,
			MinISR:         2,
			HeartbeatEvery: 10 * time.Millisecond,
			FailAfter:      2,
		}
		if tune != nil {
			tune(&cfg)
		}
		node, err := NewClusterNode(tc.brokers[i], cfg)
		if err != nil {
			t.Fatal(err)
		}
		tc.servers[i].AttachNode(node)
		tc.nodes = append(tc.nodes, node)
	}
	for _, node := range tc.nodes {
		node.Start()
	}
	t.Cleanup(tc.stopAll)
	// A joining member defers leadership and refuses replication; tests
	// that address a leader directly (no routing retry) need it settled.
	waitNotJoining(t, tc)
	return tc
}

// kill fail-stops one member: its node, server and broker all go away.
func (tc *testCluster) kill(i int) {
	if tc.killed[i] {
		return
	}
	tc.killed[i] = true
	tc.nodes[i].Close()
	tc.servers[i].Close()
	tc.brokers[i].Close()
}

func (tc *testCluster) stopAll() {
	for i := range tc.servers {
		tc.kill(i)
	}
}

// indexOf maps a member id back to its slot.
func (tc *testCluster) indexOf(id string) int {
	for i, nid := range tc.ids {
		if nid == id {
			return i
		}
	}
	tc.t.Fatalf("unknown node id %q", id)
	return -1
}

// dialCluster opens a fast-retrying routing client on the cluster.
func (tc *testCluster) dialCluster() *ClusterClient {
	tc.t.Helper()
	cc, err := DialClusterWithOptions(tc.addrs, ClusterClientOptions{
		Retries: 20,
		Backoff: 5 * time.Millisecond,
	})
	if err != nil {
		tc.t.Fatal(err)
	}
	tc.t.Cleanup(func() { _ = cc.Close() })
	return cc
}

// keylessRecs builds n keyless records with distinct values v0..v0+n-1.
func keylessRecs(v0, n int) []Record {
	out := make([]Record, n)
	base := time.Unix(0, 0).UTC()
	for i := range out {
		out[i] = Record{Value: float64(v0 + i), Time: base.Add(time.Duration(v0+i) * time.Millisecond)}
	}
	return out
}

// producePart sends one batch to an explicit partition on cli with a
// producer id + sequence — what ClusterClient.Produce does per
// partition, addressed by hand so a test can pick the member, replay a
// seq or skip one.
func producePart(cli *client, topic string, partition int, pid, seq uint64, recs []Record) (int, error) {
	return cli.producePartitionFrames(topic, partition, pid, seq, storage.AppendRecordFrames(nil, recs), len(recs))
}

// fetchAllValues drains every partition through the routing client and
// returns value -> occurrence count.
func fetchAllValues(t *testing.T, cc *ClusterClient, topic string) map[float64]int {
	t.Helper()
	parts, err := cc.Partitions(topic)
	if err != nil {
		t.Fatal(err)
	}
	got := make(map[float64]int)
	for p := 0; p < parts; p++ {
		hwm, err := cc.HighWatermark(topic, p)
		if err != nil {
			t.Fatalf("hwm p%d: %v", p, err)
		}
		off := int64(0)
		for off < hwm {
			recs, err := cc.Fetch(topic, p, off, 4096)
			if err != nil {
				t.Fatalf("fetch p%d@%d: %v", p, off, err)
			}
			if len(recs) == 0 {
				t.Fatalf("fetch p%d@%d returned nothing below hwm %d", p, off, hwm)
			}
			for i, r := range recs {
				if r.Offset != off+int64(i) {
					t.Fatalf("p%d: offset %d at position %d (want %d)", p, r.Offset, i, off+int64(i))
				}
				got[r.Value]++
			}
			off += int64(len(recs))
		}
	}
	return got
}

// ---- placement ----

// gossipOf appends a gossip at epoch whose view holds view's entries.
func gossipOf(epoch int64, view map[string]peerStatus) func([]byte) []byte {
	return func(b []byte) []byte {
		b = appendU16(appendU64(b, uint64(epoch)), uint16(len(view)))
		for id, st := range view {
			b = appendViewEntry(b, id, st)
		}
		return b
	}
}

// decodedGossip decodes the gossip appendGossip appends.
func decodedGossip(appendGossip func([]byte) []byte) gossip {
	return decodeGossip(&wireCursor{b: appendGossip(nil)})
}

// nodeEpoch reads a node's epoch.
func nodeEpoch(n *ClusterNode) int64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.epoch
}

func TestReplicasForDeterministicAndSpread(t *testing.T) {
	members := []string{"n0", "n1", "n2", "n3", "n4"}
	lead := make(map[string]int)
	for p := 0; p < 64; p++ {
		a := replicasFor("t", p, members, 3)
		b := replicasFor("t", p, members, 3)
		if len(a) != 3 {
			t.Fatalf("partition %d: %d replicas", p, len(a))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("placement not deterministic at partition %d", p)
			}
		}
		seen := map[string]bool{}
		for _, id := range a {
			if seen[id] {
				t.Fatalf("partition %d: duplicate replica %s", p, id)
			}
			seen[id] = true
		}
		lead[a[0]]++
	}
	// Rendezvous hashing should spread leadership; no member may own
	// everything or nothing across 64 partitions.
	for _, id := range members {
		if lead[id] == 0 || lead[id] == 64 {
			t.Fatalf("leadership skew: %v", lead)
		}
	}
}

func TestReplicasForStableUnderMembership(t *testing.T) {
	// The replica SET of a partition is a function of the full member
	// list only: a death never moves data, just leadership.
	members := []string{"a", "b", "c"}
	for p := 0; p < 16; p++ {
		first := replicasFor("x", p, members, 2)
		again := replicasFor("x", p, members, 2)
		for i := range first {
			if first[i] != again[i] {
				t.Fatal("unstable placement")
			}
		}
	}
}

// ---- data path ----

func TestClusterProduceFetchReplicates(t *testing.T) {
	tc := startCluster(t, 3, nil)
	cc := tc.dialCluster()
	if err := cc.CreateTopic("t", 4); err != nil {
		t.Fatal(err)
	}
	const total = 4000
	for off := 0; off < total; off += 500 {
		if _, err := cc.Produce("t", keylessRecs(off, 500)); err != nil {
			t.Fatal(err)
		}
	}
	got := fetchAllValues(t, cc, "t")
	if len(got) != total {
		t.Fatalf("fetched %d distinct values, want %d", len(got), total)
	}
	for v, c := range got {
		if c != 1 {
			t.Fatalf("value %v appeared %d times", v, c)
		}
	}
	// Every partition's log must exist identically on BOTH replicas.
	for p := 0; p < 4; p++ {
		reps := replicasFor("t", p, tc.ids, 2)
		var hwms []int64
		for _, id := range reps {
			b := tc.brokers[tc.indexOf(id)]
			hwm, err := b.HighWatermark("t", p)
			if err != nil {
				t.Fatal(err)
			}
			hwms = append(hwms, hwm)
		}
		if hwms[0] != hwms[1] {
			t.Fatalf("partition %d replicas diverge: %v on %v", p, hwms, reps)
		}
		// Non-replicas must hold nothing.
		for _, id := range tc.ids {
			if id == reps[0] || id == reps[1] {
				continue
			}
			hwm, _ := tc.brokers[tc.indexOf(id)].HighWatermark("t", p)
			if hwm != 0 {
				t.Fatalf("non-replica %s has %d records of partition %d", id, hwm, p)
			}
		}
	}
}

func TestNotLeaderRedirectCarriesHint(t *testing.T) {
	tc := startCluster(t, 3, nil)
	cc := tc.dialCluster()
	if err := cc.CreateTopic("t", 1); err != nil {
		t.Fatal(err)
	}
	m, err := cc.Meta()
	if err != nil {
		t.Fatal(err)
	}
	leader := m.LeaderOf("t", 0)
	if leader == "" {
		t.Fatal("no leader in meta")
	}
	// A raw client pointed at a non-leader replica must get a NotLeader
	// rejection naming the real leader.
	reps := replicasFor("t", 0, tc.ids, 2)
	follower := reps[1]
	if follower == leader {
		t.Fatalf("placement broken: leader %s == follower %s", leader, follower)
	}
	cli, err := dial(tc.addrs[tc.indexOf(follower)], DefaultDialTimeout, defaultRequestTimeout)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = cli.Close() }()
	_, err = producePart(cli, "t", 0, 0, 0, keylessRecs(0, 1))
	if !isNotLeader(err) {
		t.Fatalf("produce at follower: err = %v, want NotLeader", err)
	}
	if hint := leaderHint(err); hint != leader {
		t.Fatalf("leader hint = %q, want %q", hint, leader)
	}
	// And fetch at a non-replica must also redirect.
	for _, id := range tc.ids {
		if id != reps[0] && id != reps[1] {
			cli2, err := dial(tc.addrs[tc.indexOf(id)], DefaultDialTimeout, defaultRequestTimeout)
			if err != nil {
				t.Fatal(err)
			}
			defer func() { _ = cli2.Close() }()
			if _, err := cli2.Fetch("t", 0, 0, 10); !isNotLeader(err) {
				t.Fatalf("fetch at non-replica: err = %v, want NotLeader", err)
			}
		}
	}
}

// TestClusterClientWorksAgainstOneMemberBroker: a single broker is a
// one-member cluster. The routing client produces and fetches through
// it, and the member never dials itself.
func TestClusterClientWorksAgainstOneMemberBroker(t *testing.T) {
	b := New()
	if err := b.CreateTopic("t", 2); err != nil {
		t.Fatal(err)
	}
	srv := serveMember(t, b, ServerOptions{})
	cc, err := DialCluster([]string{srv.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = cc.Close() }()
	if _, err := cc.Produce("t", keylessRecs(0, 100)); err != nil {
		t.Fatal(err)
	}
	got := fetchAllValues(t, cc, "t")
	if len(got) != 100 {
		t.Fatalf("fetched %d values, want 100", len(got))
	}
	node := srv.node.Load()
	conns := 0
	node.mu.Lock()
	for _, p := range node.peers {
		if p.conn != nil {
			conns++
		}
	}
	node.mu.Unlock()
	if conns != 0 {
		t.Fatalf("one-member node holds %d peer connections, want 0", conns)
	}
}

// TestOneMemberBrokerAppendsRetriedProduceOnce puts a fault proxy
// between the routing client and a one-member broker that advertises its
// own listener, as brokerd does. The client must stay on the address it
// dialed, so the blackholed reply really is the produce's; the retry
// after the cut carries the same producer id and sequence and must not
// append the batch again.
func TestOneMemberBrokerAppendsRetriedProduceOnce(t *testing.T) {
	b := New()
	srv := serveMember(t, b, ServerOptions{})
	px, err := faults.NewProxy("127.0.0.1:0", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = px.Close() }()
	cc, err := DialClusterWithOptions([]string{px.Addr()}, ClusterClientOptions{Retries: 20, Backoff: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = cc.Close() }()
	if err := cc.CreateTopic("t", 1); err != nil {
		t.Fatal(err)
	}

	px.Set(faults.Downstream, faults.Faults{Blackhole: true})
	done := make(chan error, 1)
	go func() {
		_, err := cc.Produce("t", keylessRecs(0, 10))
		done <- err
	}()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		if hwm, _ := b.HighWatermark("t", 0); hwm >= 10 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the produce never reached the broker")
		}
	}
	select {
	case err := <-done:
		t.Fatalf("produce returned (%v) while its reply was blackholed: the client left the address it dialed", err)
	case <-time.After(50 * time.Millisecond):
	}
	px.CutConns() // the held reply dies with the connection
	px.Heal()
	if err := <-done; err != nil {
		t.Fatalf("produce after the cut: %v", err)
	}
	if hwm, _ := b.HighWatermark("t", 0); hwm != 10 {
		t.Fatalf("log holds %d records for 10 produced", hwm)
	}
	for v, c := range fetchAllValues(t, cc, "t") {
		if c != 1 {
			t.Fatalf("value %v stored %d times", v, c)
		}
	}
}

func TestProducerDedupAcrossRetries(t *testing.T) {
	tc := startCluster(t, 3, nil)
	cc := tc.dialCluster()
	if err := cc.CreateTopic("t", 1); err != nil {
		t.Fatal(err)
	}
	m, _ := cc.Meta()
	leader := m.LeaderOf("t", 0)
	cli, err := dial(tc.addrs[tc.indexOf(leader)], DefaultDialTimeout, defaultRequestTimeout)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = cli.Close() }()
	batch := keylessRecs(0, 10)
	// The same (pid, seq) delivered three times must append once.
	for i := 0; i < 3; i++ {
		if _, err := producePart(cli, "t", 0, 77, 1, batch); err != nil {
			t.Fatal(err)
		}
	}
	hwm, err := cc.HighWatermark("t", 0)
	if err != nil {
		t.Fatal(err)
	}
	if hwm != 10 {
		t.Fatalf("hwm = %d after duplicate produces, want 10", hwm)
	}
	// A new sequence appends again.
	if _, err := producePart(cli, "t", 0, 77, 2, batch); err != nil {
		t.Fatal(err)
	}
	if hwm, _ = cc.HighWatermark("t", 0); hwm != 20 {
		t.Fatalf("hwm = %d after seq 2, want 20", hwm)
	}
}

// ---- failover ----

func TestClusterFailoverPromotesFollowerNoLossNoDup(t *testing.T) {
	tc := startCluster(t, 3, nil)
	cc := tc.dialCluster()
	if err := cc.CreateTopic("t", 2); err != nil {
		t.Fatal(err)
	}
	m, err := cc.Meta()
	if err != nil {
		t.Fatal(err)
	}
	oldLeader := m.LeaderOf("t", 0)
	if oldLeader == "" {
		t.Fatal("no leader for partition 0")
	}

	const batches, per = 40, 100
	for i := 0; i < batches; i++ {
		if i == batches/2 {
			// Kill partition 0's leader mid-stream. The produce stream
			// must continue through promotion with no loss and no dup.
			tc.kill(tc.indexOf(oldLeader))
		}
		if _, err := cc.Produce("t", keylessRecs(i*per, per)); err != nil {
			t.Fatalf("produce batch %d: %v", i, err)
		}
	}

	// The survivors must have promoted a different leader for any
	// partition the dead node led.
	deadline := time.Now().Add(5 * time.Second)
	for {
		m, err = cc.Meta()
		if err == nil && m.LeaderOf("t", 0) != oldLeader && m.LeaderOf("t", 0) != "" &&
			m.LeaderOf("t", 1) != oldLeader && m.LeaderOf("t", 1) != "" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no promotion: meta %+v", m)
		}
		time.Sleep(10 * time.Millisecond)
	}

	got := fetchAllValues(t, cc, "t")
	total := batches * per
	var missing, dup int
	for v := 0; v < total; v++ {
		switch got[float64(v)] {
		case 0:
			missing++
		case 1:
		default:
			dup++
		}
	}
	if missing != 0 || dup != 0 {
		t.Fatalf("after failover: %d missing, %d duplicated of %d records", missing, dup, total)
	}
}

func TestClusterSurvivesFollowerDeath(t *testing.T) {
	tc := startCluster(t, 3, nil)
	cc := tc.dialCluster()
	if err := cc.CreateTopic("t", 1); err != nil {
		t.Fatal(err)
	}
	m, _ := cc.Meta()
	reps := replicasFor("t", 0, tc.ids, 2)
	follower := reps[1]
	if follower == m.LeaderOf("t", 0) {
		follower = reps[0]
	}
	if _, err := cc.Produce("t", keylessRecs(0, 200)); err != nil {
		t.Fatal(err)
	}
	tc.kill(tc.indexOf(follower))
	// Produce must keep working: MinISR shrinks to the live replica
	// count once the death is detected.
	for i := 0; i < 5; i++ {
		if _, err := cc.Produce("t", keylessRecs(200+i*100, 100)); err != nil {
			t.Fatalf("produce after follower death: %v", err)
		}
	}
	got := fetchAllValues(t, cc, "t")
	if len(got) != 700 {
		t.Fatalf("fetched %d values, want 700", len(got))
	}
}

// TestBackfillCarriesOtherProducersDedup pins the failover-dedup edge:
// a batch that reaches a follower inside ANOTHER producer's backfill
// must still install the original producer's dedup entry there, so a
// retry of that batch against the promoted follower is suppressed. A
// chunk the follower gap-skips must install nothing.
func TestBackfillCarriesOtherProducersDedup(t *testing.T) {
	tc := startCluster(t, 2, func(cfg *NodeConfig) {
		cfg.Replicas = 2
		cfg.MinISR = 2
	})
	cc := tc.dialCluster()
	if err := cc.CreateTopic("t", 1); err != nil {
		t.Fatal(err)
	}
	m, _ := cc.Meta()
	leader := m.LeaderOf("t", 0)
	li := tc.indexOf(leader)
	follower := tc.ids[0]
	if follower == leader {
		follower = tc.ids[1]
	}
	fi := tc.indexOf(follower)

	// Producer A's batch lands in the LEADER's log + journal only — as
	// if the push to the follower failed transiently mid-produce.
	batchA := keylessRecs(0, 10)
	appendPart(t, tc.brokers[li], "t", 0, batchA)
	tc.nodes[li].noteBatch(nodePart(t, tc.nodes[li], "t", 0), batchMeta{pid: 11, seq: 1, base: 0, end: 10})

	// Producer B produces normally: the follower is at 0, the chunk
	// base is 10 → gap → the leader backfills [0, 20) carrying BOTH
	// producers' journal entries.
	cliL, err := dial(tc.addrs[li], DefaultDialTimeout, defaultRequestTimeout)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = cliL.Close() }()
	if _, err := producePart(cliL, "t", 0, 22, 1, keylessRecs(10, 10)); err != nil {
		t.Fatal(err)
	}
	if hwm, _ := tc.brokers[fi].HighWatermark("t", 0); hwm != 20 {
		t.Fatalf("follower hwm = %d, want 20 (backfill)", hwm)
	}

	// Leader dies; producer A retries its batch against the promoted
	// follower, which must recognize (pid 11, seq 1) from the backfill.
	tc.kill(li)
	cliF, err := dial(tc.addrs[fi], DefaultDialTimeout, defaultRequestTimeout)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = cliF.Close() }()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err = producePart(cliF, "t", 0, 11, 1, batchA); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("promoted follower never accepted the retry: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if hwm, err := cliF.HighWatermark("t", 0); err != nil || hwm != 20 {
		t.Fatalf("hwm after retry = %d, %v — want 20 (dedup suppressed the re-append)", hwm, err)
	}
}

// TestDeposedLeaderDemotesAndRejoins pins the fencing/liveness
// separation under the fail-recover membership model: when the
// majority deposes a leader, the deposed node's replicates are
// rejected — and those ANSWERED rejections must not feed its failure
// detector (a deposed leader must never "detect" the healthy majority
// as dead and commit solo). On learning of its deposal it demotes
// itself to the joining state, truncates its unacked tail back to the
// promoted leader's committed watermark, and re-announces with a
// status version above the accusation. Through the whole episode every
// produce it ACKED must be visible exactly once.
func TestDeposedLeaderDemotesAndRejoins(t *testing.T) {
	tc := startCluster(t, 3, nil)
	cc := tc.dialCluster()
	if err := cc.CreateTopic("t", 1); err != nil {
		t.Fatal(err)
	}
	if _, err := cc.Produce("t", keylessRecs(0, 100)); err != nil {
		t.Fatal(err)
	}
	m, _ := cc.Meta()
	leader := m.LeaderOf("t", 0)
	li := tc.indexOf(leader)

	// The other two members declare the leader dead, as they would
	// after it stalled through its heartbeat deadline.
	for i, node := range tc.nodes {
		if i != li {
			node.mergeView(decodedGossip(gossipOf(node.epoch+1, map[string]peerStatus{leader: {Dead: true, Ver: 1}})))
		}
	}

	// The deposed leader keeps trying to produce fresh batches. While
	// fenced, every replicate is rejected (answered) and the produce
	// fails under-replicated; meanwhile its heartbeats bring back the
	// deposal, it demotes, resyncs, re-announces, and completes the
	// takeover handshake — after which produces succeed, REPLICATED.
	// (Whether the first attempts land in the fenced window is timing;
	// the invariants — every ack exactly-once, never a solo commit
	// that survives as a divergent log — are asserted below.)
	cliL, err := dial(tc.addrs[li], DefaultDialTimeout, defaultRequestTimeout)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = cliL.Close() }()
	acked := map[int]bool{}
	fenced := 0
	deadline := time.Now().Add(10 * time.Second)
	seq, batch := uint64(0), -1
	for {
		seq++
		batch++
		v0 := 1000 + batch*10
		if _, err := producePart(cliL, "t", 0, 33, seq, keylessRecs(v0, 10)); err == nil {
			acked[v0] = true
			break
		}
		fenced++
		if time.Now().After(deadline) {
			t.Fatal("deposed leader never rejoined")
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Logf("%d produce attempts fenced before the rejoin", fenced)

	// The fencing rejections must not have poisoned its view: it never
	// declared the healthy majority dead.
	g := decodedGossip(tc.nodes[li].appendGossip)
	for i, off := 0, 0; i < g.n; i++ {
		id, st, next := g.entry(off)
		if off = next; st.Dead {
			t.Fatalf("deposed leader marked %s dead off fencing rejections", id)
		}
	}

	// Acked ⇒ exactly once; everything ⇒ at most once. (A FAILED
	// produce may still become visible — either truncated at rejoin or
	// committed by a later round's backfill; produce errors are
	// at-least-once, exactly as before this refactor.)
	got := fetchAllValues(t, cc, "t")
	for v := 0; v < 100; v++ {
		if got[float64(v)] != 1 {
			t.Fatalf("pre-deposal record %d appears %d times", v, got[float64(v)])
		}
	}
	for v0 := range acked {
		for i := 0; i < 10; i++ {
			if got[float64(v0+i)] != 1 {
				t.Fatalf("acked record %d appears %d times", v0+i, got[float64(v0+i)])
			}
		}
	}
	for v, c := range got {
		if c != 1 {
			t.Fatalf("record %v appears %d times", v, c)
		}
	}
	// Both replicas converge to the same log.
	reps := replicasFor("t", 0, tc.ids, 2)
	deadline = time.Now().Add(5 * time.Second)
	for {
		h0, _ := tc.brokers[tc.indexOf(reps[0])].HighWatermark("t", 0)
		h1, _ := tc.brokers[tc.indexOf(reps[1])].HighWatermark("t", 0)
		if h0 == h1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("replicas diverge after rejoin: %d vs %d", h0, h1)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
