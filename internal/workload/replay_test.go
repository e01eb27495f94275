package workload

import (
	"context"
	"fmt"
	"testing"
	"time"

	"streamapprox/internal/broker"
	"streamapprox/internal/faults"
	"streamapprox/internal/stream"
	"streamapprox/internal/xrand"
)

// killAfter is a producer that starts fail-stopping a broker as it sends
// its n-th message, so a replay loses a partition leader mid-run, with
// that message possibly in flight to it. killed closes once it is down.
type killAfter struct {
	*broker.ClusterClient
	n      int
	kill   func()
	killed chan struct{}
}

func (k *killAfter) Produce(topic string, recs []broker.Record) (int, error) {
	if k.n--; k.n == 0 {
		go func() {
			defer close(k.killed)
			k.kill()
		}()
	}
	return k.ClusterClient.Produce(topic, recs)
}

// TestReplayFailoverExactlyOnce replays a dataset through the routing
// client into a 3-broker cluster with replication factor 2 and kills a
// partition leader a third of the way in: the replay returns no error,
// and the cluster holds every item exactly once.
func TestReplayFailoverExactlyOnce(t *testing.T) {
	const members = 3
	brokers := make([]*broker.Broker, members)
	servers := make([]*broker.Server, members)
	nodes := make([]*broker.ClusterNode, members)
	peers := make(map[string]string, members)
	index := make(map[string]int, members)
	addrs := make([]string, members)
	for i := range brokers {
		brokers[i] = broker.New()
		srv, err := broker.ServeWithOptions(brokers[i], "127.0.0.1:0", broker.ServerOptions{})
		if err != nil {
			t.Fatal(err)
		}
		id := fmt.Sprintf("n%d", i)
		servers[i], peers[id], index[id], addrs[i] = srv, srv.Addr(), i, srv.Addr()
	}
	for i := range nodes {
		node, err := broker.NewClusterNode(brokers[i], broker.NodeConfig{ID: fmt.Sprintf("n%d", i), Peers: peers,
			Replicas: 2, MinISR: 2, HeartbeatEvery: 10 * time.Millisecond, FailAfter: 2})
		if err != nil {
			t.Fatal(err)
		}
		servers[i].AttachNode(node)
		nodes[i] = node
	}
	for _, n := range nodes {
		n.Start()
	}
	down := -1
	defer func() {
		for i := range nodes {
			if i != down {
				nodes[i].Close()
				servers[i].Close()
				brokers[i].Close()
			}
		}
	}()
	cc, err := broker.DialClusterWithOptions(addrs, broker.ClusterClientOptions{Retries: 20, Backoff: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer cc.Close()
	if err := cc.CreateTopic("in", 4); err != nil {
		t.Fatal(err)
	}

	events := TaxiEvents(xrand.New(3), 20000, 20*time.Second)
	m, err := cc.Meta()
	if err != nil {
		t.Fatal(err)
	}
	leader, ok := index[m.LeaderOf("in", 0)]
	if !ok {
		t.Fatalf("no leader for partition 0: %+v", m)
	}
	dst := &killAfter{ClusterClient: cc, n: 34, killed: make(chan struct{}), kill: func() {
		nodes[leader].Close()
		servers[leader].Close()
		brokers[leader].Close()
	}}
	n, err := (&Replayer{ItemsPerMessage: 200}).Replay(context.Background(), dst, "in", events)
	if dst.n > 0 {
		t.Fatalf("Replay stopped before the kill: %d, %v", n, err)
	}
	<-dst.killed
	down = leader
	if err != nil || n != len(events) {
		t.Fatalf("Replay across a leader kill = %d, %v; want %d, nil", n, err, len(events))
	}

	assertStoredOnce(t, cc, events)
}

// cutReply is a producer that, at its n-th message, holds the broker's
// replies in the proxy until the message is in the log, then severs
// every proxied connection: the routing client retries a produce that
// already appended.
type cutReply struct {
	*broker.ClusterClient
	n      int
	px     *faults.Proxy
	logged func() int64
	sent   int64
}

func (c *cutReply) Produce(topic string, recs []broker.Record) (int, error) {
	c.sent += int64(len(recs))
	if c.n--; c.n == 0 {
		c.px.Set(faults.Downstream, faults.Faults{Blackhole: true})
		go func(want int64) {
			for deadline := time.Now().Add(5 * time.Second); c.logged() < want && time.Now().Before(deadline); {
				time.Sleep(time.Millisecond)
			}
			c.px.CutConns()
			c.px.Heal()
		}(c.sent)
	}
	return c.ClusterClient.Produce(topic, recs)
}

// TestReplayOneMemberBrokerExactlyOnce replays a dataset through a fault
// proxy into a single broker, served as a one-member cluster the way
// brokerd runs without -peers, and cuts the connections under one
// message whose replies were held back: the replay returns no error, and
// the broker holds every item exactly once.
func TestReplayOneMemberBrokerExactlyOnce(t *testing.T) {
	b := broker.New()
	defer b.Close()
	srv, err := broker.ServeWithOptions(b, "127.0.0.1:0", broker.ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	node, err := broker.NewClusterNode(b, broker.NodeConfig{ID: "n0", Peers: map[string]string{"n0": srv.Addr()}, Replicas: 1, MinISR: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	srv.AttachNode(node)
	node.Start()
	px, err := faults.NewProxy("127.0.0.1:0", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer px.Close()
	cc, err := broker.DialClusterWithOptions([]string{px.Addr()}, broker.ClusterClientOptions{Retries: 20, Backoff: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer cc.Close()
	if err := cc.CreateTopic("in", 4); err != nil {
		t.Fatal(err)
	}

	events := TaxiEvents(xrand.New(5), 20000, 20*time.Second)
	dst := &cutReply{ClusterClient: cc, n: 34, px: px, logged: func() int64 {
		var n int64
		for p := 0; p < 4; p++ {
			hwm, _ := b.HighWatermark("in", p)
			n += hwm
		}
		return n
	}}
	n, err := (&Replayer{ItemsPerMessage: 200}).Replay(context.Background(), dst, "in", events)
	if dst.n > 0 {
		t.Fatalf("Replay stopped before the cut: %d, %v", n, err)
	}
	if err != nil || n != len(events) {
		t.Fatalf("Replay across a cut = %d, %v; want %d, nil", n, err, len(events))
	}
	assertStoredOnce(t, cc, events)
}

// assertStoredOnce reads every partition of topic "in" back through cc
// and checks it holds each event exactly once.
func assertStoredOnce(t *testing.T, cc *broker.ClusterClient, events []stream.Event) {
	t.Helper()
	type item struct {
		key   string
		value float64
		nanos int64
	}
	want := make(map[item]int, len(events))
	for _, e := range events {
		want[item{e.Stratum, e.Value, e.Time.UnixNano()}]++
	}
	for p := 0; p < 4; p++ {
		hwm, err := cc.HighWatermark("in", p)
		if err != nil {
			t.Fatal(err)
		}
		for off := int64(0); off < hwm; {
			recs, err := cc.Fetch("in", p, off, 4096)
			if err != nil || len(recs) == 0 {
				t.Fatalf("fetch p%d@%d below hwm %d: %d records, %v", p, off, hwm, len(recs), err)
			}
			for _, r := range recs {
				it := item{r.Key, r.Value, r.Time.UnixNano()}
				if want[it]--; want[it] < 0 {
					t.Fatalf("item %+v stored more often than replayed", it)
				}
			}
			off += int64(len(recs))
		}
	}
	for it, c := range want {
		if c > 0 {
			t.Fatalf("item %+v replayed but not stored (%d missing)", it, c)
		}
	}
}
