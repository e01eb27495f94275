package broker

// Cluster metadata: broker membership, epochs, and partition placement.
//
// A broker cluster has STATIC membership (every node is started with the
// full id→addr map) and a thin, broker-hosted control plane: each node
// keeps its own view of which peers are alive, detected by heartbeats
// and failed replication calls, and views converge by gossip (pings
// carry the sender's epoch and dead set; receivers merge by union/max).
//
// Partition placement is rendezvous hashing over the FULL member list,
// so the replica set of a partition never moves when nodes die — only
// LEADERSHIP moves, to the first live replica in rendezvous order.
// Every node computes the same placement from the same inputs, so there
// is no assignment state to replicate; the epoch (bumped on every
// membership change) lets clients prefer the freshest view.

import (
	"errors"
	"fmt"
	"hash/fnv"
	"sort"
	"strings"
)

// NodeInfo describes one cluster member in a metadata response.
type NodeInfo struct {
	ID    string
	Addr  string
	Alive bool
}

// PartitionInfo is one partition's placement: the static replica set in
// rendezvous order and the current leader (first live replica).
type PartitionInfo struct {
	Leader   string
	Replicas []string
}

// TopicInfo is the placement of every partition of one topic.
type TopicInfo struct {
	Partitions []PartitionInfo
}

// ClusterMeta is the control-plane snapshot served by the "meta" op:
// membership, liveness, and partition→leader/replica assignment as seen
// by the answering node. Clients cache it and refresh on NotLeader
// redirects, preferring responses with higher epochs.
type ClusterMeta struct {
	Epoch  int64
	Nodes  []NodeInfo
	Topics map[string]TopicInfo
}

// replicasFor returns the replica set of (topic, partition): the
// highest-random-weight `replicas` members of the full (sorted) member
// list. Rank order is the promotion order — the first LIVE entry leads.
func replicasFor(topic string, partition int, members []string, replicas int) []string {
	if replicas < 1 {
		replicas = 1
	}
	if replicas > len(members) {
		replicas = len(members)
	}
	type scored struct {
		id    string
		score uint64
	}
	sc := make([]scored, 0, len(members))
	for _, id := range members {
		h := fnv.New64a()
		fmt.Fprintf(h, "%s#%d#%s", topic, partition, id)
		sc = append(sc, scored{id: id, score: h.Sum64()})
	}
	sort.Slice(sc, func(i, j int) bool {
		if sc[i].score != sc[j].score {
			return sc[i].score > sc[j].score
		}
		return sc[i].id < sc[j].id
	})
	out := make([]string, replicas)
	for i := 0; i < replicas; i++ {
		out[i] = sc[i].id
	}
	return out
}

// LeaderOf returns the current leader of a partition per this metadata
// view ("" when the topic or partition is unknown or no replica lives).
func (m *ClusterMeta) LeaderOf(topic string, partition int) string {
	t, ok := m.Topics[topic]
	if !ok || partition < 0 || partition >= len(t.Partitions) {
		return ""
	}
	return t.Partitions[partition].Leader
}

// ReplicasOf returns a partition's replica set in rendezvous (promotion)
// order, nil when the topic or partition is unknown.
func (m *ClusterMeta) ReplicasOf(topic string, partition int) []string {
	t, ok := m.Topics[topic]
	if !ok || partition < 0 || partition >= len(t.Partitions) {
		return nil
	}
	return t.Partitions[partition].Replicas
}

// addrOf returns a member's address ("" if unknown).
func (m *ClusterMeta) addrOf(nodeID string) string {
	for _, n := range m.Nodes {
		if n.ID == nodeID {
			return n.Addr
		}
	}
	return ""
}

// Cluster errors. A NotLeader rejection is no sentinel: it travels as a
// structured error string (notLeaderError) so the routing client can
// extract the redirect hint after a TCP round trip.
var (
	// errNoReplica is returned when no live replica remains.
	errNoReplica = errors.New("broker: no live replica for partition")
	// errUnderReplicated is returned when a produce cannot reach the
	// required in-sync replica count.
	errUnderReplicated = errors.New("broker: insufficient in-sync replicas")
)

// notLeaderPrefix opens the wire form of a NotLeader rejection; the
// token after it is the rejecting node's current leader hint (possibly
// empty).
const notLeaderPrefix = "NOT_LEADER"

// notLeaderError formats the wire form carrying a leader hint.
func notLeaderError(leaderID string) error {
	return fmt.Errorf("%s %s", notLeaderPrefix, leaderID)
}

// isNotLeader reports whether err is a NotLeader rejection (local or
// decoded from the wire).
func isNotLeader(err error) bool {
	return err != nil && strings.Contains(err.Error(), notLeaderPrefix)
}

// leaderHint extracts the redirect hint from a wire NotLeader error
// ("" when absent).
func leaderHint(err error) string {
	if err == nil {
		return ""
	}
	msg := err.Error()
	i := strings.Index(msg, notLeaderPrefix)
	if i < 0 {
		return ""
	}
	rest := strings.TrimSpace(msg[i+len(notLeaderPrefix):])
	if j := strings.IndexAny(rest, " \t\n"); j >= 0 {
		rest = rest[:j]
	}
	return rest
}
