package broker

import (
	"errors"
	"fmt"
	"maps"
	"sync"
	"testing"
	"time"

	"streamapprox/internal/broker/storage"
	"streamapprox/internal/faults"
)

// ---- ClusterClient.Produce: send everything, then wait ----

// TestKeyRoutingAgrees: whichever side partitions, a key lands on the
// same partition — the in-process Broker.Produce, Broker.ProduceFrames
// (a frame chunk split in place) and ClusterClient.Produce (client-side
// split, straight to the partition) all route with keyPartition. It is
// what lets the serving tier treat "stratum" and "partition's ingest
// shard" as one assignment no matter how the data was produced.
func TestKeyRoutingAgrees(t *testing.T) {
	keys := []string{"a", "k", "ключ", "鍵", "🗝️", "naïve key with spaces",
		// internal/workload's netflow protocols and taxi boroughs (that
		// package imports this one, so the names are repeated here).
		"tcp", "udp", "icmp", "manhattan", "brooklyn", "queens", "bronx", "staten-island", "ewr"}
	for k := 0; k < 16; k++ {
		keys = append(keys, fmt.Sprintf("s%02d", k)) // bench/'s strata
	}
	for _, parts := range []int{1, 3, 4, 7} {
		batch := make([]Record, 0, len(keys)+2*parts)
		for i, key := range keys {
			batch = append(batch, Record{Key: key, Value: float64(i)})
		}
		batch = append(batch, keylessRecs(0, 2*parts)...)

		// One broker per produce path, so each starts its own keyless
		// round-robin cursor at partition 0.
		var brokers [3]*Broker
		for i := range brokers {
			brokers[i] = New()
			defer brokers[i].Close()
			if err := brokers[i].CreateTopic("t", parts); err != nil {
				t.Fatal(err)
			}
		}
		cc, err := DialCluster([]string{serveMember(t, brokers[2], ServerOptions{}).Addr()})
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = cc.Close() }()
		produce := [3]func([]Record) (int, error){
			func(recs []Record) (int, error) { return brokers[0].Produce("t", recs) },
			func(recs []Record) (int, error) {
				return brokers[1].ProduceFrames("t", storage.AppendRecordFrames(nil, recs), len(recs))
			},
			func(recs []Record) (int, error) { return cc.Produce("t", recs) },
		}
		for i, name := range []string{"Broker.Produce", "Broker.ProduceFrames", "ClusterClient.Produce"} {
			if n, err := produce[i](batch); err != nil || n != len(batch) {
				t.Fatalf("%d partitions, %s = %d, %v", parts, name, n, err)
			}
			keyless, total := make([]int, parts), 0
			for p := 0; p < parts; p++ {
				got, err := brokers[i].Fetch("t", p, 0, len(batch))
				if err != nil {
					t.Fatal(err)
				}
				total += len(got)
				for _, r := range got {
					if r.Key == "" {
						keyless[p]++
					} else if want := keyPartition(r.Key, parts); p != want || want != keyPartition([]byte(r.Key), parts) {
						t.Errorf("%d partitions, %s: key %q on partition %d, keyPartition says %d", parts, name, r.Key, p, want)
					}
				}
			}
			if total != len(batch) {
				t.Errorf("%d partitions, %s: %d records stored, %d produced", parts, name, total, len(batch))
			}
			for p, n := range keyless {
				if n != 2 {
					t.Errorf("%d partitions, %s: partition %d got %d of the %d keyless records, want 2 (round robin)", parts, name, p, n, 2*parts)
				}
			}
		}
	}
}

// keysByPartition finds one key routed to each partition.
func keysByPartition(cc *ClusterClient, parts int) []string {
	keys := make([]string, parts)
	for i, found := 0, 0; found < parts; i++ {
		k := fmt.Sprintf("k%d", i)
		if p := cc.partitionForKey(k, parts); keys[p] == "" {
			keys[p] = k
			found++
		}
	}
	return keys
}

// editMeta swaps the client's cached cluster view for an edited copy —
// how these tests make the view stale on purpose.
func editMeta(cc *ClusterClient, edit func(m *ClusterMeta)) {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	m := &ClusterMeta{
		Epoch:  cc.meta.Epoch,
		Nodes:  append([]NodeInfo(nil), cc.meta.Nodes...),
		Topics: make(map[string]TopicInfo, len(cc.meta.Topics)),
	}
	for name, ti := range cc.meta.Topics {
		m.Topics[name] = TopicInfo{Partitions: append([]PartitionInfo(nil), ti.Partitions...)}
	}
	edit(m)
	cc.meta = m
}

// assertSeqs checks that partition p's current leader has seen exactly
// want produce batches from this client and that the client assigned
// exactly as many: one seq per Produce call, however many attempts each
// took. A retry under a fresh seq would leave both above want.
func assertSeqs(t *testing.T, tc *testCluster, cc *ClusterClient, topic string, p int, want uint64) {
	t.Helper()
	tp := fmt.Sprintf("%s/%d", topic, p)
	pp := cc.producer(partKey{topic, p})
	pp.mu.Lock()
	assigned := pp.seq
	pp.mu.Unlock()
	if assigned != want {
		t.Errorf("%s: client assigned seq %d, want %d", tp, assigned, want)
	}
	m, err := cc.Meta()
	if err != nil {
		t.Fatal(err)
	}
	ldr := tc.nodes[tc.indexOf(m.LeaderOf(topic, p))]
	if ps, ok := ldr.lastSeq(nodePart(t, ldr, topic, p), cc.pid); !ok || ps.seq != want {
		t.Errorf("%s: leader %s holds seq %d (known %v), want %d", tp, ldr.ID(), ps.seq, ok, want)
	}
}

// assertExactlyOnce checks the topic holds every value in [0, total)
// exactly once.
func assertExactlyOnce(t *testing.T, cc *ClusterClient, topic string, total int) {
	t.Helper()
	got := fetchAllValues(t, cc, topic)
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
	if missing != 0 || dup != 0 || len(got) != total {
		t.Fatalf("%d missing, %d duplicated, %d distinct of %d records", missing, dup, len(got), total)
	}
}

// TestProduceMessageBudget: one ClusterClient.Produce costs one producep
// request to each partition's leader and one replicate to its follower,
// and nothing else but heartbeats: 500 keyed records over 4 partitions of
// a 3-member cluster at RF 2 / min-ISR 2 serve exactly 4 of each, and
// over one partition 1 of each. These round trips bound the saturated
// produce path, so an extra one on the ack path fails here.
func TestProduceMessageBudget(t *testing.T) {
	tc := startCluster(t, 3, nil)
	cc := tc.dialCluster()
	served := func() map[string]uint64 {
		sum := make(map[string]uint64)
		for _, reg := range tc.regs {
			for op, n := range requestCounts(reg) {
				if op != "ping" && n > 0 {
					sum[op] += n
				}
			}
		}
		return sum
	}
	for _, parts := range []int{4, 1} {
		topic := fmt.Sprintf("budget%d", parts)
		if err := cc.CreateTopic(topic, parts); err != nil {
			t.Fatal(err)
		}
		batch := benchRecords(500)
		hit := make(map[int]bool)
		for i := range batch {
			batch[i].Key = fmt.Sprintf("s%02d", i%16)
			hit[keyPartition(batch[i].Key, parts)] = true
		}
		if len(hit) != parts {
			t.Fatalf("the batch's keys reach %d of %d partitions", len(hit), parts)
		}
		if _, err := cc.Produce(topic, batch); err != nil { // dial the lanes, learn the leaders
			t.Fatal(err)
		}
		before := served()
		if _, err := cc.Produce(topic, batch); err != nil {
			t.Fatal(err)
		}
		got := served()
		for op, n := range before {
			got[op] -= n
			if got[op] == 0 {
				delete(got, op)
			}
		}
		if want := map[string]uint64{"producep": uint64(parts), "replicate": uint64(parts)}; !maps.Equal(got, want) {
			t.Errorf("%d partitions: one produce served %v, want %v", parts, got, want)
		}
	}
}

// TestProducePartialFailureReusesSeq drives attempt 0 of ONE partition
// into each failure kind while the batch's other partitions succeed: a
// NotLeader answer (the cached view names the follower), then a leader
// killed under a stale view. Every record must land exactly once and
// every partition must have consumed exactly one seq per Produce call.
func TestProducePartialFailureReusesSeq(t *testing.T) {
	const parts, per = 4, 5
	tc := startCluster(t, 3, nil)
	cc := tc.dialCluster()
	if err := cc.CreateTopic("t", parts); err != nil {
		t.Fatal(err)
	}
	keys := keysByPartition(cc, parts)
	calls, next := 0, 0
	produce := func() {
		t.Helper()
		var recs []Record
		for p := 0; p < parts; p++ {
			for _, r := range keylessRecs(next, per) {
				r.Key = keys[p]
				recs = append(recs, r)
			}
			next += per
		}
		if n, err := cc.Produce("t", recs); err != nil || n != len(recs) {
			t.Fatalf("produce call %d: acked %d of %d: %v", calls, n, len(recs), err)
		}
		calls++
	}
	produce()
	produce()

	// NotLeader: the view names partition 0's follower as its leader.
	m, err := cc.Meta()
	if err != nil {
		t.Fatal(err)
	}
	leader := m.LeaderOf("t", 0)
	editMeta(cc, func(m *ClusterMeta) {
		for _, id := range m.ReplicasOf("t", 0) {
			if id != leader {
				m.Topics["t"].Partitions[0].Leader = id
			}
		}
	})
	produce()
	for p := 0; p < parts; p++ {
		assertSeqs(t, tc, cc, "t", p, uint64(calls))
		reps := m.ReplicasOf("t", p)
		assertLogsIdentical(t, tc.brokers[tc.indexOf(reps[0])], tc.brokers[tc.indexOf(reps[1])], "t", p)
	}

	// Transport failure: partition 0's leader dies; the view is stale.
	tc.kill(tc.indexOf(leader))
	produce()
	produce()
	assertExactlyOnce(t, cc, "t", next)
	for p := 0; p < parts; p++ {
		assertSeqs(t, tc, cc, "t", p, uint64(calls))
		reps := m.ReplicasOf("t", p)
		if reps[0] != leader && reps[1] != leader { // both replicas survive
			assertLogsIdentical(t, tc.brokers[tc.indexOf(reps[0])], tc.brokers[tc.indexOf(reps[1])], "t", p)
		}
	}
}

// TestProduceConcurrentCallersOrdered runs 8 callers whose batches span
// overlapping partition sets. Taking produce locks in ascending
// partition order means they cannot deadlock; holding each lock from
// seq assignment to final outcome means seqs reach the leader in
// assignment order — were one overtaken, the leader would take the late
// one for a duplicate and its records would be missing here.
func TestProduceConcurrentCallersOrdered(t *testing.T) {
	const parts, callers, batches, per = 4, 8, 25, 3
	tc := startCluster(t, 3, nil)
	cc := tc.dialCluster()
	if err := cc.CreateTopic("t", parts); err != nil {
		t.Fatal(err)
	}
	keys := keysByPartition(cc, parts)
	sets := [callers][]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}, {0, 1, 2, 3}, {2, 0}, {3, 1}, {3}}
	// A record's value names its caller, batch and partition.
	value := func(c, i, p, j int) float64 { return float64(((c*batches+i)*parts+p)*per + j) }

	var wg sync.WaitGroup
	errs := make([]error, callers)
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < batches && errs[c] == nil; i++ {
				var recs []Record
				for _, p := range sets[c] {
					for j := 0; j < per; j++ {
						recs = append(recs, Record{Key: keys[p], Value: value(c, i, p, j), Time: time.Unix(int64(i), 0).UTC()})
					}
				}
				if n, err := cc.Produce("t", recs); err != nil || n != len(recs) {
					errs[c] = fmt.Errorf("caller %d batch %d: acked %d of %d: %v", c, i, n, len(recs), err)
				}
			}
		}(c)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("concurrent Produce callers did not finish: deadlock")
	}
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	for p := 0; p < parts; p++ {
		want := 0 // batches sent to p
		for _, set := range sets {
			for _, q := range set {
				if q == p {
					want += batches
				}
			}
		}
		hwm, err := cc.HighWatermark("t", p)
		if err != nil {
			t.Fatal(err)
		}
		if hwm != int64(want*per) {
			t.Errorf("p%d holds %d records, want %d", p, hwm, want*per)
		}
		recs, err := cc.Fetch("t", p, 0, int(hwm))
		if err != nil {
			t.Fatal(err)
		}
		seen := make(map[float64]bool, len(recs))
		lastBatch := make([]int, callers)
		for _, r := range recs {
			if seen[r.Value] {
				t.Fatalf("p%d: value %v appended twice", p, r.Value)
			}
			seen[r.Value] = true
			ci := int(r.Value) / per / parts
			c, i := ci/batches, ci%batches
			if i < lastBatch[c] {
				t.Fatalf("p%d: caller %d's batch %d appended after its batch %d", p, c, i, lastBatch[c])
			}
			lastBatch[c] = i
		}
		assertSeqs(t, tc, cc, "t", p, uint64(want))
	}
}

// TestProduceDeadlineOnePartition blackholes the replies of one leader.
// The awaits of that leader's partitions time out at the request
// deadline while every other partition's reply is still consumed; the
// retry routes around the stall and, because the swallowed attempt DID
// append, must be recognised by its reused seq — a duplicate delivery
// that appends nothing.
func TestProduceDeadlineOnePartition(t *testing.T) {
	const parts, per, timeout = 4, 5, 300 * time.Millisecond
	tc := startCluster(t, 3, nil)
	cc, err := DialClusterWithOptions(tc.addrs, ClusterClientOptions{
		Retries: 20, Backoff: 5 * time.Millisecond, RequestTimeout: timeout,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = cc.Close() })
	if err := cc.CreateTopic("t", parts); err != nil {
		t.Fatal(err)
	}
	next := 0
	produce := func() time.Duration {
		t.Helper()
		recs := keylessRecs(next, parts*per) // round-robin: per records on every partition
		next += len(recs)
		start := time.Now()
		if n, err := cc.Produce("t", recs); err != nil || n != len(recs) {
			t.Fatalf("produce: acked %d of %d: %v", n, len(recs), err)
		}
		return time.Since(start)
	}
	produce()

	// Reach partition 0's leader through a fault proxy from now on.
	m, err := cc.Meta()
	if err != nil {
		t.Fatal(err)
	}
	leader := m.LeaderOf("t", 0)
	proxy, err := faults.NewProxy("127.0.0.1:0", m.addrOf(leader))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = proxy.Close() })
	editMeta(cc, func(m *ClusterMeta) {
		for i := range m.Nodes {
			if m.Nodes[i].ID == leader {
				m.Nodes[i].Addr = proxy.Addr()
			}
		}
	})
	produce() // dials the lanes through the healthy proxy

	proxy.Set(faults.Downstream, faults.Faults{Blackhole: true})
	took := produce()
	// One request deadline for the swallowed acks (the flights share it)
	// plus one for the metadata refresh's hello through the same proxy.
	if took < timeout*3/4 || took > 2*timeout+2*time.Second {
		t.Errorf("produce through a blackholed leader took %v, want about %v", took, timeout)
	}
	assertExactlyOnce(t, cc, "t", next)
	for p := 0; p < parts; p++ {
		assertSeqs(t, tc, cc, "t", p, 3)
	}
}

// TestProduceClosedClientAndUnknownTopic pins the two errors Produce
// reports without sending anything.
func TestProduceClosedClientAndUnknownTopic(t *testing.T) {
	tc := startCluster(t, 3, nil)
	cc := tc.dialCluster()
	if err := cc.CreateTopic("t", 2); err != nil {
		t.Fatal(err)
	}
	if n, err := cc.Produce("nope", keylessRecs(0, 4)); n != 0 || !errors.Is(err, ErrUnknownTopic) {
		t.Errorf("unknown topic: acked %d, err %v; want ErrUnknownTopic", n, err)
	}
	_ = cc.Close()
	if n, err := cc.Produce("t", keylessRecs(0, 4)); n != 0 || !errors.Is(err, errClientClosed) {
		t.Errorf("closed client: acked %d, err %v; want errClientClosed", n, err)
	}
}
