package broker

import (
	"testing"
	"time"
)

// Failure-injection tests: the system must degrade cleanly, not hang or
// panic, when parts of the aggregator tier disappear mid-stream.

func TestClientErrorsAfterServerClose(t *testing.T) {
	srv := serveMember(t, New(), ServerOptions{})
	cli, err := dial(srv.Addr(), DefaultDialTimeout, defaultRequestTimeout)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = cli.Close() }()
	if err := cli.CreateTopic("t", 1); err != nil {
		t.Fatal(err)
	}
	srv.Close()
	if _, err := cli.Fetch("t", 0, 0, 1); err == nil {
		t.Error("fetch after server close succeeded")
	}
	// Subsequent calls must keep failing fast rather than deadlocking.
	if _, err := cli.HighWatermark("t", 0); err == nil {
		t.Error("hwm after server close succeeded")
	}
}

// TestConsumerResumesAcrossLeaderFailover drives a positioned reader
// through the routing client while the partition leader dies
// mid-stream: polls must keep delivering every record exactly once, and
// a reader constructed at the position the first one kept before the
// failover resumes against the promoted follower.
func TestConsumerResumesAcrossLeaderFailover(t *testing.T) {
	tc := startCluster(t, 3, nil)
	cc := tc.dialCluster()
	if err := cc.CreateTopic("in", 1); err != nil {
		t.Fatal(err)
	}
	if _, err := cc.Produce("in", keylessRecs(0, 3000)); err != nil {
		t.Fatal(err)
	}
	cons := NewPartitionConsumer(cc, "in", 0, 0)
	seen := map[float64]int{}
	next := drainValues(t, cons, seen)
	if len(seen) != 3000 || next != 3000 {
		t.Fatalf("pre-failover: saw %d records up to offset %d", len(seen), next)
	}

	m, _ := cc.Meta()
	leader := m.LeaderOf("in", 0)
	tc.kill(tc.indexOf(leader))
	if _, err := cc.Produce("in", keylessRecs(3000, 2000)); err != nil {
		t.Fatalf("produce after leader death: %v", err)
	}
	// The same reader keeps polling; the routing client under it
	// redirects to the promoted follower.
	deadline := time.Now().Add(10 * time.Second)
	for len(seen) < 5000 && time.Now().Before(deadline) {
		drainValues(t, cons, seen)
	}
	if len(seen) != 5000 {
		t.Fatalf("post-failover: saw %d distinct records, want 5000", len(seen))
	}
	for v, c := range seen {
		if c != 1 {
			t.Fatalf("record %v delivered %d times", v, c)
		}
	}
	// A fresh reader constructed at the position the first one kept
	// before the failover reads exactly the records produced after it.
	resumed := map[float64]int{}
	if end := drainValues(t, NewPartitionConsumer(cc, "in", 0, next), resumed); end != 5000 || len(resumed) != 2000 {
		t.Fatalf("resumed reader saw %d records up to offset %d, want 2000 up to 5000", len(resumed), end)
	}
	for v := range resumed {
		if v < 3000 {
			t.Fatalf("resumed reader re-read record %v from below its starting position", v)
		}
	}
}
