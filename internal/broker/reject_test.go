package broker

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"streamapprox/internal/broker/storage"
)

// nodeTableEntries sums the entries of every map the node holds in its
// own fields.
func nodeTableEntries(n *ClusterNode) int {
	v := reflect.ValueOf(n).Elem()
	total := 0
	for i := 0; i < v.NumField(); i++ {
		if f := v.Field(i); f.Kind() == reflect.Map {
			total += f.Len()
		}
	}
	return total
}

// TestRejectedProduceLeavesNoState sends produces naming unknown topics
// and out-of-range partitions straight to a member. Each is refused,
// and none may leave an entry behind in the node: outside input must
// not grow its tables.
func TestRejectedProduceLeavesNoState(t *testing.T) {
	srv, cli := startServer(t)
	if err := cli.CreateTopic("in", 2); err != nil {
		t.Fatal(err)
	}
	if _, err := producePart(cli, "in", 0, 7, 1, keylessRecs(0, 5)); err != nil {
		t.Fatal(err)
	}
	node := srv.node.Load()
	node.mu.Lock()
	before := nodeTableEntries(node)
	node.mu.Unlock()
	recs := keylessRecs(0, 1)
	for i := 0; i < 1000; i++ {
		if _, err := producePart(cli, fmt.Sprintf("nope-%d", i), 0, 7, 1, recs); err == nil || !strings.Contains(err.Error(), "unknown topic") {
			t.Fatalf("produce to an unknown topic: err = %v, want unknown topic", err)
		}
		if _, err := producePart(cli, "in", 2+i, 7, 1, recs); err == nil || !strings.Contains(err.Error(), "partition out of range") {
			t.Fatalf("produce to partition %d of 2: err = %v, want partition out of range", 2+i, err)
		}
	}
	node.mu.Lock()
	after := nodeTableEntries(node)
	node.mu.Unlock()
	if after != before {
		t.Fatalf("rejected produces grew the node's tables from %d to %d entries", before, after)
	}
	if hwm, err := cli.HighWatermark("in", 0); err != nil || hwm != 5 {
		t.Fatalf("in/0 watermark = %d, %v; want 5", hwm, err)
	}
}

// TestRejectedReplicateChangesNoEpoch sends a follower replicates at a
// huge epoch from two senders it must refuse: a non-member and a member
// that is not a replica of the partition. Neither may move the
// follower's cluster epoch (gossip would spread it) or its partition's
// fence epoch (the real leader's next replicate would be fenced off).
func TestRejectedReplicateChangesNoEpoch(t *testing.T) {
	tc := startCluster(t, 3, nil)
	cc := tc.dialCluster()
	if err := cc.CreateTopic("t", 1); err != nil {
		t.Fatal(err)
	}
	m, err := cc.Meta()
	if err != nil {
		t.Fatal(err)
	}
	reps := m.ReplicasOf("t", 0)
	if len(reps) != 2 {
		t.Fatalf("replicas of t/0 = %v, want 2", reps)
	}
	leader, follower := reps[0], reps[1]
	outsider := ""
	for _, id := range tc.ids {
		if id != leader && id != follower {
			outsider = id
		}
	}
	fn := tc.nodes[tc.indexOf(follower)]
	section := func(v0 int) replSection {
		return replSection{base: 0, frames: storage.AppendRecordFrames(nil, keylessRecs(v0, 3)), count: 3}
	}
	const huge = int64(1) << 40
	for _, sender := range []string{"intruder", outsider} {
		if _, err := fn.applyReplicate(huge, sender, "t", 0, section(100)); err == nil {
			t.Fatalf("replicate from %s accepted", sender)
		}
		if epoch := nodeEpoch(fn); epoch >= huge {
			t.Fatalf("replicate from %s moved the follower's epoch to %d", sender, epoch)
		}
	}
	if hwm, _ := tc.brokers[tc.indexOf(follower)].HighWatermark("t", 0); hwm != 0 {
		t.Fatalf("refused replicates changed the follower's log: hwm = %d", hwm)
	}
	epoch := nodeEpoch(tc.nodes[tc.indexOf(leader)])
	hwm, err := fn.applyReplicate(epoch, leader, "t", 0, section(0))
	if err != nil {
		t.Fatalf("the leader's replicate at epoch %d after the refusals: %v", epoch, err)
	}
	if hwm != 3 {
		t.Fatalf("hwm = %d, want 3", hwm)
	}
}
