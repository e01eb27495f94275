package broker

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"streamapprox/internal/broker/storage"
	"streamapprox/internal/stream"
)

// The data path's allocation guards, counted rather than timed: what a
// request leaves behind is paid for again in every broker's resident
// memory, as headroom the collector needs above the live log.

// TestFramesToBatchAllocatesNothing: the consumer's decode walks a chunk
// with a Frame on the stack. The batch keeps its dictionary and column
// capacity between runs, as a pooled batch does between rounds, so what
// is counted is the walk and the column copies alone.
func TestFramesToBatchAllocatesNothing(t *testing.T) {
	batch := benchRecords(4 * 125)
	for i := range batch {
		batch[i].Key = fmt.Sprintf("s%02d", i%4)
	}
	var chunk []byte
	for at := 0; at < len(batch); at += 125 {
		chunk = storage.AppendRecordFrames(chunk, batch[at:at+125])
	}
	eb := stream.GetEventBatch()
	defer eb.Release()
	decode := func() {
		eb.Strata, eb.Values, eb.Times = eb.Strata[:0], eb.Values[:0], eb.Times[:0]
		if n, err := framesToBatch(chunk, len(batch), 0, eb); err != nil || n != len(batch) {
			t.Fatalf("framesToBatch = %d, %v", n, err)
		}
	}
	decode()
	if allocs := testing.AllocsPerRun(100, decode); allocs != 0 {
		t.Errorf("framesToBatch over 4 frames: %v allocations, want 0", allocs)
	}
}

// TestFramesToBatchAcrossResetAllocatesNothing: a pooled batch is Reset
// between fetch rounds, and its dictionary IDs start over each round; the
// strings of the keys it has seen stay, so a round over the same keys
// allocates none of them again.
func TestFramesToBatchAcrossResetAllocatesNothing(t *testing.T) {
	batch := benchRecords(4 * 125)
	for i := range batch {
		batch[i].Key = fmt.Sprintf("s%02d", i%4)
	}
	var chunk []byte
	for at := 0; at < len(batch); at += 125 {
		chunk = storage.AppendRecordFrames(chunk, batch[at:at+125])
	}
	eb := stream.GetEventBatch()
	defer eb.Release()
	decode := func() {
		eb.Reset()
		if n, err := framesToBatch(chunk, len(batch), 0, eb); err != nil || n != len(batch) {
			t.Fatalf("framesToBatch = %d, %v", n, err)
		}
		if len(eb.Dict) != 4 || eb.Dict[eb.Strata[len(batch)-1]] != batch[len(batch)-1].Key {
			t.Fatalf("dictionary %q after a reset, want the round's 4 keys", eb.Dict)
		}
	}
	decode()
	if allocs := testing.AllocsPerRun(100, decode); allocs != 0 {
		t.Errorf("framesToBatch after Reset: %v allocations, want 0", allocs)
	}
}

// maxProduceAllocs bounds what one acknowledged Produce allocates across
// the whole process on a 2-member RF 2 cluster: client encode, leader
// append, replicate, follower apply and both acks. The path itself
// allocates nothing — the count reads 0 — and what remains is the logs'
// own growth (a fresh in-memory chunk every 256 KiB, the frame index
// doubling) amortized over the calls, and a heartbeat should one fall
// inside the count.
const maxProduceAllocs = 2

// TestProduceRoundTripAllocs: a produce → replicate → ack round trip
// reuses its reply channels, timers, flights, journal entries and
// decode scratch, so it stays at maxProduceAllocs. Heartbeats are slowed
// so that a probe seldom falls inside the count.
func TestProduceRoundTripAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("-race: sync.Pool drops pooled scratch at random")
	}
	tc := startCluster(t, 2, func(c *NodeConfig) { c.HeartbeatEvery = time.Second })
	cc := tc.dialCluster()
	if err := cc.CreateTopic("alloc", 2); err != nil {
		t.Fatal(err)
	}
	batch := benchRecords(200)
	for i := range batch {
		batch[i].Key = fmt.Sprintf("s%02d", i%8)
	}
	produce := func() {
		if n, err := cc.Produce("alloc", batch); err != nil || n != len(batch) {
			t.Fatalf("Produce = %d, %v", n, err)
		}
	}
	for range 20 { // dial every lane, grow every pool
		produce()
	}
	if allocs := testing.AllocsPerRun(200, produce); allocs > maxProduceAllocs {
		t.Errorf("Produce round trip: %v allocations, want at most %d", allocs, maxProduceAllocs)
	}
}

// TestControlRoundTripAllocs: the control ops are binary like the data
// ops, so a steady-state ping — the heartbeat every member sends every
// peer — and a hello allocate nothing of their own, and a meta only the
// ClusterMeta it returns. Counted process-wide against a one-member
// broker holding one 2-partition topic, the ping carrying a view of one
// entry each way.
func TestControlRoundTripAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("-race: sync.Pool drops pooled scratch at random")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	srv := serveMember(t, New(), ServerOptions{})
	cli, err := dial(srv.Addr(), DefaultDialTimeout, defaultRequestTimeout)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if err := cli.CreateTopic("t", 2); err != nil {
		t.Fatal(err)
	}
	appendGossip := gossipOf(1, map[string]peerStatus{"n0": {Ver: 1}})
	var entries int
	for _, c := range []struct {
		op  string
		max float64
		do  func() error
	}{
		{"ping", 2, func() error {
			return cli.ping(time.Second, "n0", appendGossip, func(g gossip) { entries = g.n })
		}},
		{"hello", 2, cli.hello},
		{"meta", 12, func() error {
			m, err := cli.Meta()
			if err == nil && len(m.Topics["t"].Partitions) != 2 {
				err = fmt.Errorf("meta %+v", m)
			}
			return err
		}},
	} {
		do := func() {
			if err := c.do(); err != nil {
				t.Fatalf("%s: %v", c.op, err)
			}
		}
		for range 20 {
			do()
		}
		if allocs := testing.AllocsPerRun(500, do); allocs > c.max {
			t.Errorf("%s round trip: %v allocations, want at most %v", c.op, allocs, c.max)
		} else {
			t.Logf("%s round trip: %v allocations", c.op, allocs)
		}
	}
	if entries != 1 {
		t.Errorf("the ping answer carried %d view entries, want 1", entries)
	}
}
