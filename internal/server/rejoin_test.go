package server

import (
	"fmt"
	"testing"
	"time"

	"streamapprox/internal/broker"
	"streamapprox/internal/broker/storage"
	"streamapprox/internal/metrics"
	"streamapprox/internal/stream"
)

// End-to-end restart/rejoin: a registered query served over a 3-broker
// RF2 cluster with DURABLE partition logs must survive a partition
// leader being killed mid-stream AND restarted from its data directory
// — the dead member rejoins as a follower, syncs its log, re-enters
// the ISR, takes its leadership back, and the query observes no lost
// or duplicated windows. This is the acceptance scenario of the
// storage-engine refactor.

// durableBrokerCluster is a 3-member durable broker cluster driven
// through the broker package's exported API only.
type durableBrokerCluster struct {
	t       *testing.T
	brokers []*broker.Broker
	servers []*broker.Server
	nodes   []*broker.ClusterNode
	ids     []string
	addrs   []string
	dirs    []string
	peers   map[string]string
	killed  []bool
}

func startDurableBrokerCluster(t *testing.T, members int) *durableBrokerCluster {
	t.Helper()
	bc := &durableBrokerCluster{t: t, killed: make([]bool, members), peers: make(map[string]string, members)}
	for i := 0; i < members; i++ {
		dir := t.TempDir()
		b, err := broker.Open(broker.StorageConfig{Dir: dir, Policy: storage.SyncAlways})
		if err != nil {
			t.Fatal(err)
		}
		srv, err := broker.ServeWithOptions(b, "127.0.0.1:0", broker.ServerOptions{})
		if err != nil {
			t.Fatal(err)
		}
		id := fmt.Sprintf("n%d", i)
		bc.peers[id] = srv.Addr()
		bc.brokers = append(bc.brokers, b)
		bc.servers = append(bc.servers, srv)
		bc.ids = append(bc.ids, id)
		bc.addrs = append(bc.addrs, srv.Addr())
		bc.dirs = append(bc.dirs, dir)
	}
	for i := 0; i < members; i++ {
		node, err := broker.NewClusterNode(bc.brokers[i], bc.nodeConfig(i))
		if err != nil {
			t.Fatal(err)
		}
		bc.servers[i].AttachNode(node)
		bc.nodes = append(bc.nodes, node)
	}
	for _, n := range bc.nodes {
		n.Start()
	}
	t.Cleanup(func() {
		for i := range bc.servers {
			bc.kill(i)
		}
	})
	return bc
}

func (bc *durableBrokerCluster) nodeConfig(i int) broker.NodeConfig {
	return broker.NodeConfig{
		ID:             bc.ids[i],
		Peers:          bc.peers,
		Replicas:       2,
		MinISR:         2,
		HeartbeatEvery: 10 * time.Millisecond,
		FailAfter:      2,
	}
}

// kill fail-stops a member without flushing anything: with the
// always-fsync policy the on-disk state equals a kill -9's.
func (bc *durableBrokerCluster) kill(i int) {
	if bc.killed[i] {
		return
	}
	bc.killed[i] = true
	bc.nodes[i].Close()
	bc.servers[i].Close()
}

// restart boots a member from its data directory on its original
// address.
func (bc *durableBrokerCluster) restart(i int) {
	bc.t.Helper()
	b, err := broker.Open(broker.StorageConfig{Dir: bc.dirs[i], Policy: storage.SyncAlways})
	if err != nil {
		bc.t.Fatal(err)
	}
	node, err := broker.NewClusterNode(b, bc.nodeConfig(i))
	if err != nil {
		bc.t.Fatal(err)
	}
	srv, err := broker.ServeWithOptions(b, bc.addrs[i], broker.ServerOptions{})
	if err != nil {
		bc.t.Fatal(err)
	}
	srv.AttachNode(node)
	node.Start()
	bc.brokers[i], bc.servers[i], bc.nodes[i] = b, srv, node
	bc.killed[i] = false
}

func (bc *durableBrokerCluster) indexOf(t *testing.T, id string) int {
	for i, nid := range bc.ids {
		if nid == id {
			return i
		}
	}
	t.Fatalf("unknown node id %q", id)
	return -1
}

func (bc *durableBrokerCluster) dial(t *testing.T) *broker.ClusterClient {
	t.Helper()
	cc, err := broker.DialClusterWithOptions(bc.addrs, broker.ClusterClientOptions{
		Retries: 25,
		Backoff: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = cc.Close() })
	return cc
}

func TestClusterRestartRejoinQueryNoLossNoDup(t *testing.T) {
	bc := startDurableBrokerCluster(t, 3)
	cc := bc.dial(t)
	if err := cc.CreateTopic("in", 2); err != nil {
		t.Fatal(err)
	}

	s, err := New(Config{
		Cluster: cc,
		DialShard: func() (broker.Cluster, error) {
			return broker.DialClusterWithOptions(bc.addrs, broker.ClusterClientOptions{
				Retries: 25, Backoff: 5 * time.Millisecond,
			})
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

	events := makeEvents(29, 24000) // 24s of event time
	toRecords := func(evs []stream.Event) []broker.Record {
		out := make([]broker.Record, len(evs))
		for i, e := range evs {
			out[i] = broker.FromEvent(e)
		}
		return out
	}
	produce := func(from, to int) {
		t.Helper()
		for off := from; off < to; off += 1000 {
			if _, err := cc.Produce("in", toRecords(events[off:off+1000])); err != nil {
				t.Fatalf("produce at %d: %v", off, err)
			}
		}
	}

	// First third of the stream, then kill partition 0's leader.
	third := len(events) / 3
	produce(0, third)
	m, err := cc.Meta()
	if err != nil {
		t.Fatal(err)
	}
	victim := m.LeaderOf("in", 0)
	if victim == "" {
		t.Fatal("no leader for partition 0")
	}
	vi := bc.indexOf(t, victim)
	bc.kill(vi)

	// Second third rides through detection + promotion, the query keeps
	// consuming from the interim leader.
	produce(third, 2*third)

	// Restart the dead member from its data directory: it must rejoin
	// as follower, sync its log, and take partition 0's leadership back
	// (it is the first rendezvous replica). Its own view — read from its
	// leadership gauge, not from a routing client that merges every
	// member's view — has it lead only once the takeover handshake
	// finished.
	bc.restart(vi)
	reg := metrics.NewRegistry()
	bc.nodes[vi].RegisterMetrics(reg)
	leads := reg.Gauge("broker_partition_leader", "1 when this node leads the partition",
		metrics.Labels{"topic": "in", "partition": "0"})
	deadline := time.Now().Add(15 * time.Second)
	for {
		reg.Render() // runs the node's scrape hook, which sets the gauge
		if leads.Value() == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("restarted broker never rejoined as leader of partition 0")
		}
		time.Sleep(20 * time.Millisecond)
	}

	// Final third is served by the rejoined member again.
	produce(2*third, len(events))

	// ISR re-entry: both replicas of both partitions converge to the
	// same log (every produce above needed MinISR=2 acks once the
	// restarted member was live again).
	deadline = time.Now().Add(10 * time.Second)
	for p := 0; p < 2; p++ {
		for {
			var hwms []int64
			m, err := cc.Meta()
			if err != nil {
				t.Fatal(err)
			}
			for _, rid := range m.Topics["in"].Partitions[p].Replicas {
				h, err := bc.brokers[bc.indexOf(t, rid)].HighWatermark("in", p)
				if err != nil {
					t.Fatal(err)
				}
				hwms = append(hwms, h)
			}
			if len(hwms) == 2 && hwms[0] == hwms[1] {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("partition %d replicas never converged: %v", p, hwms)
			}
			time.Sleep(20 * time.Millisecond)
		}
	}

	// The query consumed every produced record exactly once...
	total := int64(len(events))
	deadline = time.Now().Add(20 * time.Second)
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

	// ...and its served windows are unique and hole-free across the
	// stream's event-time span.
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
