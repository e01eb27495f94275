package server

import (
	"fmt"
	"testing"
	"time"

	"streamapprox/internal/broker"
	"streamapprox/internal/faults"
	"streamapprox/internal/stream"
)

// The chaos acceptance test: a 3-broker cluster where EVERY byte —
// client→broker and broker→broker — crosses a faults.Proxy, so one
// member can be asymmetrically partitioned (its inbound traffic
// stalled with connections held open, the failure mode kill() cannot
// produce) while a live query and a produce stream ride through.

// chaosCluster is a proxy-fronted brokerCluster: peers and clients are
// given the PROXY addresses, never the real listen addresses.
type chaosCluster struct {
	brokers []*broker.Broker
	servers []*broker.Server
	nodes   []*broker.ClusterNode
	proxies []*faults.Proxy
	ids     []string
	addrs   []string // proxy addresses — the cluster's advertised identity
}

// Short timeouts everywhere: the point of the chaos plane is that no
// RPC outlives its deadline, so detection depends on these, not on TCP
// giving up.
const (
	chaosHeartbeat    = 20 * time.Millisecond
	chaosProbeTimeout = 200 * time.Millisecond
	chaosRPCTimeout   = 500 * time.Millisecond
)

func startChaosCluster(t *testing.T, members int) *chaosCluster {
	t.Helper()
	cc := &chaosCluster{}
	peers := make(map[string]string, members)
	for i := 0; i < members; i++ {
		b := broker.New()
		srv, err := broker.ServeWithOptions(b, "127.0.0.1:0", broker.ServerOptions{})
		if err != nil {
			t.Fatal(err)
		}
		p, err := faults.NewProxy("127.0.0.1:0", srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		id := fmt.Sprintf("n%d", i)
		peers[id] = p.Addr()
		cc.brokers = append(cc.brokers, b)
		cc.servers = append(cc.servers, srv)
		cc.proxies = append(cc.proxies, p)
		cc.ids = append(cc.ids, id)
		cc.addrs = append(cc.addrs, p.Addr())
	}
	for i := 0; i < members; i++ {
		node, err := broker.NewClusterNode(cc.brokers[i], broker.NodeConfig{
			ID:             cc.ids[i],
			Peers:          peers,
			Replicas:       2,
			MinISR:         2,
			HeartbeatEvery: chaosHeartbeat,
			FailAfter:      3,
			ProbeTimeout:   chaosProbeTimeout,
			RPCTimeout:     chaosRPCTimeout,
			DialTimeout:    chaosRPCTimeout,
		})
		if err != nil {
			t.Fatal(err)
		}
		cc.servers[i].AttachNode(node)
		cc.nodes = append(cc.nodes, node)
	}
	for _, n := range cc.nodes {
		n.Start()
	}
	t.Cleanup(func() {
		for i := range cc.servers {
			cc.nodes[i].Close()
			cc.servers[i].Close()
			cc.brokers[i].Close()
			_ = cc.proxies[i].Close()
		}
	})
	return cc
}

func (cc *chaosCluster) indexOf(t *testing.T, id string) int {
	for i, nid := range cc.ids {
		if nid == id {
			return i
		}
	}
	t.Fatalf("unknown node id %q", id)
	return -1
}

func (cc *chaosCluster) clientOptions() broker.ClusterClientOptions {
	return broker.ClusterClientOptions{
		Retries:        30,
		Backoff:        5 * time.Millisecond,
		DialTimeout:    chaosRPCTimeout,
		RequestTimeout: chaosRPCTimeout,
	}
}

func (cc *chaosCluster) dial(t *testing.T) *broker.ClusterClient {
	t.Helper()
	c, err := broker.DialClusterWithOptions(cc.addrs, cc.clientOptions())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	return c
}

// TestClusterAsymmetricPartitionNoLossNoDup blackholes the partition-0
// leader's proxy mid-stream: its connections stay open but every byte
// in or out of it stalls. The cluster must detect the silence through
// probe deadlines (not connection errors — there are none), promote a
// follower within a bounded time, and the live query must end with no
// lost and no duplicated windows while no produce call wedges.
func TestClusterAsymmetricPartitionNoLossNoDup(t *testing.T) {
	bc := startChaosCluster(t, 3)
	cc := bc.dial(t)
	if err := cc.CreateTopic("in", 2); err != nil {
		t.Fatal(err)
	}

	s, err := New(Config{
		Cluster: cc,
		DialShard: func() (broker.Cluster, error) {
			return broker.DialClusterWithOptions(bc.addrs, bc.clientOptions())
		},
		Topic:       "in",
		PollBackoff: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	id, err := s.Register(Spec{Kind: "sum", Window: 2 * time.Second, Slide: time.Second, Fraction: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	j, _ := s.job(id)

	events := makeEvents(31, 24000)
	toRecords := func(evs []stream.Event) []broker.Record {
		out := make([]broker.Record, len(evs))
		for i, e := range evs {
			out[i] = broker.FromEvent(e)
		}
		return out
	}
	// Every produce call must finish inside the client's retry budget:
	// per-attempt work is bounded by the request timeout, backoff is
	// capped, so a stalled leader costs seconds — never a wedge.
	const produceBound = 20 * time.Second
	var maxProduce time.Duration
	produce := func(evs []stream.Event) {
		t.Helper()
		start := time.Now()
		if _, err := cc.Produce("in", toRecords(evs)); err != nil {
			t.Fatalf("produce: %v", err)
		}
		if d := time.Since(start); d > maxProduce {
			maxProduce = d
			if d > produceBound {
				t.Fatalf("produce blocked %v (> %v): deadline not enforced", d, produceBound)
			}
		}
	}

	half := len(events) / 2
	for off := 0; off < half; off += 1000 {
		produce(events[off : off+1000])
	}

	m, err := cc.Meta()
	if err != nil {
		t.Fatal(err)
	}
	oldLeader := m.LeaderOf("in", 0)
	if oldLeader == "" {
		t.Fatal("no leader for partition 0")
	}
	victim := bc.indexOf(t, oldLeader)
	faultAt := time.Now()
	bc.proxies[victim].Set(faults.Both, faults.Faults{Blackhole: true})
	t.Logf("blackholed %s (proxy %s), connections held open", oldLeader, bc.addrs[victim])

	// The produce stream rides straight through the partition: stalled
	// RPCs hit their deadlines, the client refreshes its metadata and
	// retries against the promoted leader.
	for off := half; off < len(events); off += 1000 {
		produce(events[off : off+1000])
	}

	// Promotion must be observed within a bounded window for every
	// partition the silenced node led. The detector has no RST or EOF
	// to go on — only probes timing out — so this asserts the deadline
	// path end to end.
	const failoverBound = 10 * time.Second
	deadline := time.Now().Add(failoverBound)
	for {
		m, err = cc.Meta()
		if err == nil {
			l0, l1 := m.LeaderOf("in", 0), m.LeaderOf("in", 1)
			if l0 != oldLeader && l0 != "" && l1 != oldLeader && l1 != "" {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("no promotion within %v of blackhole: %+v", failoverBound, m)
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Logf("failover completed %v after blackhole (max produce latency %v)",
		time.Since(faultAt).Round(time.Millisecond), maxProduce.Round(time.Millisecond))

	// The query must consume every produced record exactly once — the
	// routing client refreshes its metadata on every retry round of a
	// stalled partition's poll; acked records replicated to the survivors
	// are all there.
	total := int64(len(events))
	deadline = time.Now().Add(30 * time.Second)
	for {
		var consumed int64
		for _, sh := range j.shards {
			consumed += sh.records.Load()
		}
		if consumed == total {
			break
		}
		if consumed > total {
			t.Fatalf("query consumed %d records, produced only %d (duplication)", consumed, total)
		}
		if time.Now().After(deadline) {
			t.Fatalf("query consumed %d of %d records before deadline (loss)", consumed, total)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Served windows: unique, and gap-free across the covered span.
	deadline = time.Now().Add(10 * time.Second)
	var results []MergedWindow
	for {
		results = j.resultsSince(-1)
		if len(results) >= 20 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d windows merged", len(results))
		}
		time.Sleep(10 * time.Millisecond)
	}
	seen := map[time.Time]bool{}
	var minStart, maxStart time.Time
	for _, r := range results {
		if seen[r.Start] {
			t.Fatalf("window %v served twice", r.Start)
		}
		seen[r.Start] = true
		if minStart.IsZero() || r.Start.Before(minStart) {
			minStart = r.Start
		}
		if r.Start.After(maxStart) {
			maxStart = r.Start
		}
	}
	for at := minStart; !at.After(maxStart); at = at.Add(time.Second) {
		if !seen[at] {
			t.Fatalf("window starting %v missing between %v and %v", at, minStart, maxStart)
		}
	}
}

// TestClusterFollowerStallShrinksISR slows a FOLLOWER to a crawl (its
// proxy stalls inbound replication pushes). The leader's bounded push
// must time out, count failures, and eject the follower from the ISR
// instead of wedging every produce behind the slow replica.
func TestClusterFollowerStallShrinksISR(t *testing.T) {
	bc := startChaosCluster(t, 3)
	cc := bc.dial(t)
	if err := cc.CreateTopic("in", 1); err != nil {
		t.Fatal(err)
	}
	warm := makeEvents(5, 1000)
	recs := make([]broker.Record, len(warm))
	for i, e := range warm {
		recs[i] = broker.FromEvent(e)
	}
	if _, err := cc.Produce("in", recs); err != nil {
		t.Fatal(err)
	}
	m, err := cc.Meta()
	if err != nil {
		t.Fatal(err)
	}
	leader := m.LeaderOf("in", 0)
	if leader == "" {
		t.Fatal("no leader")
	}
	// Pick the partition's follower: a replica of partition 0 that is
	// not the leader.
	var follower string
	for _, r := range m.ReplicasOf("in", 0) {
		if r != leader {
			follower = r
			break
		}
	}
	if follower == "" {
		t.Fatal("no follower for partition 0")
	}
	bc.proxies[bc.indexOf(t, follower)].Set(faults.Both, faults.Faults{Blackhole: true})

	// Produces must keep completing: the stalled follower is ejected
	// after its pushes exhaust their deadlines, not waited on forever.
	// (MinISR is 2 of 2, so produces stall-then-succeed once the dead
	// follower's partitions re-replicate to the third member.)
	deadline := time.Now().Add(20 * time.Second)
	for {
		start := time.Now()
		_, err := cc.Produce("in", recs[:100])
		if took := time.Since(start); took > 20*time.Second {
			t.Fatalf("produce blocked %v behind a stalled follower", took)
		}
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("produce never recovered after follower stall: %v", err)
		}
		time.Sleep(50 * time.Millisecond)
	}
}
