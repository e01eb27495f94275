package server

import (
	"fmt"
	"testing"
	"time"

	"streamapprox/internal/broker"
	"streamapprox/internal/stream"
)

// End-to-end cluster failover: a registered query served over a
// 3-broker cluster with replication factor 2 must survive the death of
// a partition leader mid-stream with no lost or duplicated windows —
// the acceptance scenario of the multi-broker refactor.

// brokerCluster is a 3-member in-process broker cluster driven through
// the package's exported API only.
type brokerCluster struct {
	brokers []*broker.Broker
	servers []*broker.Server
	nodes   []*broker.ClusterNode
	ids     []string
	addrs   []string
	killed  []bool
}

func startBrokerCluster(t *testing.T, members int) *brokerCluster {
	t.Helper()
	bc := &brokerCluster{killed: make([]bool, members)}
	peers := make(map[string]string, members)
	for i := 0; i < members; i++ {
		b := broker.New()
		srv, err := broker.ServeWithOptions(b, "127.0.0.1:0", broker.ServerOptions{})
		if err != nil {
			t.Fatal(err)
		}
		id := fmt.Sprintf("n%d", i)
		peers[id] = srv.Addr()
		bc.brokers = append(bc.brokers, b)
		bc.servers = append(bc.servers, srv)
		bc.ids = append(bc.ids, id)
		bc.addrs = append(bc.addrs, srv.Addr())
	}
	for i := 0; i < members; i++ {
		node, err := broker.NewClusterNode(bc.brokers[i], broker.NodeConfig{
			ID:             bc.ids[i],
			Peers:          peers,
			Replicas:       2,
			MinISR:         2,
			HeartbeatEvery: 10 * time.Millisecond,
			FailAfter:      2,
		})
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

func (bc *brokerCluster) kill(i int) {
	if bc.killed[i] {
		return
	}
	bc.killed[i] = true
	bc.nodes[i].Close()
	bc.servers[i].Close()
	bc.brokers[i].Close()
}

func (bc *brokerCluster) indexOf(t *testing.T, id string) int {
	for i, nid := range bc.ids {
		if nid == id {
			return i
		}
	}
	t.Fatalf("unknown node id %q", id)
	return -1
}

func (bc *brokerCluster) dial(t *testing.T) *broker.ClusterClient {
	t.Helper()
	cc, err := broker.DialClusterWithOptions(bc.addrs, broker.ClusterClientOptions{
		Retries: 20,
		Backoff: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = cc.Close() })
	return cc
}

func TestClusterFailoverQueryNoLossNoDup(t *testing.T) {
	bc := startBrokerCluster(t, 3)
	cc := bc.dial(t)
	if err := cc.CreateTopic("in", 2); err != nil {
		t.Fatal(err)
	}

	s, err := New(Config{
		Cluster: cc,
		DialShard: func() (broker.Cluster, error) {
			return broker.DialClusterWithOptions(bc.addrs, broker.ClusterClientOptions{
				Retries: 20, Backoff: 5 * time.Millisecond,
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

	events := makeEvents(23, 24000) // 24s of event time
	toRecords := func(evs []stream.Event) []broker.Record {
		out := make([]broker.Record, len(evs))
		for i, e := range evs {
			out[i] = broker.FromEvent(e)
		}
		return out
	}

	// First half, then kill the leader of partition 0 mid-stream, then
	// the second half — the produce stream and the running query must
	// both ride through the promotion.
	half := len(events) / 2
	for off := 0; off < half; off += 1000 {
		if _, err := cc.Produce("in", toRecords(events[off:off+1000])); err != nil {
			t.Fatalf("produce: %v", err)
		}
	}
	m, err := cc.Meta()
	if err != nil {
		t.Fatal(err)
	}
	oldLeader := m.LeaderOf("in", 0)
	if oldLeader == "" {
		t.Fatal("no leader for partition 0")
	}
	bc.kill(bc.indexOf(t, oldLeader))
	for off := half; off < len(events); off += 1000 {
		if _, err := cc.Produce("in", toRecords(events[off:off+1000])); err != nil {
			t.Fatalf("produce after leader kill: %v", err)
		}
	}

	// A follower must have been promoted for every partition the dead
	// node led.
	deadline := time.Now().Add(5 * time.Second)
	for {
		m, err = cc.Meta()
		if err == nil && m.LeaderOf("in", 0) != oldLeader && m.LeaderOf("in", 0) != "" &&
			m.LeaderOf("in", 1) != oldLeader && m.LeaderOf("in", 1) != "" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no promotion observed: %+v", m)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// The query must consume every produced record exactly once...
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

	// ...and its served windows must be unique and cover the stream's
	// event-time span without holes.
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

// TestIngestRidesOverClusterClient is the cheap sanity check that the
// shared ingest plane consumes a (healthy) cluster through the routing
// client exactly as it does a single broker.
func TestIngestRidesOverClusterClient(t *testing.T) {
	bc := startBrokerCluster(t, 3)
	cc := bc.dial(t)
	if err := cc.CreateTopic("in", 2); err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Cluster: cc, Topic: "in", PollBackoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	id, err := s.Register(Spec{Kind: "count", Window: time.Second, Slide: time.Second, Fraction: 1})
	if err != nil {
		t.Fatal(err)
	}
	j, _ := s.job(id)
	events := makeEvents(7, 4000)
	recs := make([]broker.Record, len(events))
	for i, e := range events {
		recs[i] = broker.FromEvent(e)
	}
	if _, err := cc.Produce("in", recs); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		var consumed int64
		for _, sh := range j.shards {
			consumed += sh.records.Load()
		}
		if consumed == int64(len(events)) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("consumed %d of %d", consumed, len(events))
		}
		time.Sleep(5 * time.Millisecond)
	}
}
