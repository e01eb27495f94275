package broker

// ClusterNode turns one broker process into a member of a multi-broker
// cluster. The cluster has no external coordinator: every node is
// started with the same static id→addr member map, placement is a pure
// function of it (cluster.go), and each node maintains its own liveness
// view via heartbeats + gossip, promoting the next replica of a
// partition the moment its leader is observed dead.
//
// Data-plane roles per partition:
//
//   - the LEADER accepts produce, appends locally, then streams the
//     appended chunk to every live follower over the binary `replicate`
//     op, acking the producer only once MinISR replicas (counting
//     itself, shrunk to the live replica count) hold the records. The
//     offset acked that way is the partition's COMMITTED watermark; the
//     leader serves fetches only up to it, so consumers can never
//     observe records that a failover could lose. Each appended chunk
//     goes to each live follower in its own replicate RPC on the peer's
//     pipelined connection, and the producing goroutine reads that ack
//     itself. Concurrent produces may arrive out of order; followers
//     apply them via the gap/backfill protocol below.
//   - a FOLLOWER applies replicated chunks at their exact base offset
//     (idempotently: duplicate prefixes are trimmed, gaps answered with
//     the local watermark so the leader backfills) and tracks producer
//     sequence numbers, so after a promotion it can deduplicate a
//     producer's retry of a batch the dead leader already replicated.
//     A chunk moves as a section — frames, the producer journal entries
//     they cover and the sender's committed watermark, which the
//     follower persists as the truncation point of its next restart —
//     and a pushed section and one pulled at rejoin apply alike.
//
// Failure model: fail-recover. Liveness is a per-member versioned
// status (SWIM-style incarnations): declaring a peer dead bumps its
// status version, and only the peer itself can announce itself alive
// again, with a HIGHER version — so gossip converges on the newest
// observation and a resurrection cannot be undone by a stale dead set.
// A node boots (and re-enters after being deposed) in a JOINING state:
// it takes no leadership and accepts no replication until it has
// fetched the cluster's current view, created any topics it missed,
// truncated its recovered logs back to each partition leader's
// committed watermark (discarding divergent uncommitted tails), pulled
// the committed records it missed, and announced itself with a bumped
// version. Catch-up then rides the ordinary replication backfill. The no-loss guarantee holds when
// MinISR == Replicas; with fewer required acks, records on the
// minority side of a failover can be lost, exactly as in Kafka with
// acks < all.
//
// node.go: the config, the two records and the node's lifecycle.
// membership.go: the status view, gossip, failure detector, placement.
// catchup.go: join, rejoin truncation and the takeover handshake.
// produce.go: the leader's dedup and append, and committed reads.
// replicate.go: the leader's push of each chunk to its followers.
// follower.go: replica reads, fencing and the section apply.
// state.go: state.json persistence, readiness and the metric scrape.
//
// State lives in two kinds of record, and which lock guards what:
//
//   - partState, one per partition, hangs off the broker's partition
//     (partition.cl). It is created the first time the node touches a
//     partition the broker has resolved and range-checked, so a request
//     naming a topic or partition that does not exist leaves nothing
//     behind. p, node, topic, partition and reps never change. n.mu
//     guards seqs, metas, remoteHWM, followHWM, replEpoch and syncing.
//     mu serializes a produce's dedup check + append + journal and the
//     leadership adoption in lead; committed and leading are atomics.
//     saveMu serializes the partition's state.json writes; dirty is an
//     atomic.
//   - peer, one per static member, built in NewClusterNode; the table
//     never changes. id and addr never change; repl is an atomic; n.mu
//     guards the rest.
//
// Lock order: partState.mu → n.mu and partState.saveMu → n.mu. n.mu is
// never held across a broker call or an RPC.

import (
	"fmt"
	"log/slog"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"streamapprox/internal/metrics"
)

// NodeConfig configures one broker's membership in a cluster.
type NodeConfig struct {
	// ID is this node's member id; it must be a key of Peers.
	ID string
	// Peers maps every member id (including this node's) to its
	// advertised broker address.
	Peers map[string]string
	// Replicas is the replication factor for every partition (default
	// 2, capped at the member count).
	Replicas int
	// MinISR is the number of replicas (counting the leader) that must
	// hold a produced batch before it is acked and becomes fetchable.
	// It shrinks to the live replica count, so a partition stays
	// writable after failures (default Replicas).
	MinISR int
	// HeartbeatEvery is the peer probe interval (default 250ms).
	HeartbeatEvery time.Duration
	// FailAfter is the number of consecutive failed probes (heartbeats
	// or replication calls) after which a peer is declared dead
	// (default 3).
	FailAfter int
	// DialTimeout bounds TCP connect to a peer (default
	// DefaultDialTimeout). A blackholed peer must not wedge dialers.
	DialTimeout time.Duration
	// ProbeTimeout bounds one heartbeat ping RPC (default
	// 4×HeartbeatEvery, floor 1s). A probe that cannot answer within a
	// few heartbeats IS the failure signal; waiting longer only slows
	// detection of stalled-but-connected peers.
	ProbeTimeout time.Duration
	// RPCTimeout bounds every other peer RPC — replicates, rejoin
	// catch-up fetches, meta pulls (default 10s). Replicates into a
	// stalled follower time out and count as one probe failure per
	// broken connection, however many were in flight on it; after
	// FailAfter failures the follower is declared dead and drops out of
	// the ISR, instead of wedging its producers forever.
	RPCTimeout time.Duration
	// Log, when set, receives membership and replication log lines,
	// each carrying node=ID. Nil is silent.
	Log *slog.Logger
}

// partState is one node's cluster state of one partition (the locks
// are listed at the top of this file).
type partState struct {
	p         *partition
	node      *ClusterNode // owner: a record another node left behind is replaced
	topic     string
	partition int
	reps      []string // rendezvous replica set; placement is static

	// mu serializes the dedup-check + append + journal section of a
	// produce (replication happens outside it). committed is the
	// leader's committed watermark, 0 until this node first leads the
	// partition. leading tracks whether this node currently serves the
	// partition as leader — every ACQUISITION of leadership re-adopts
	// the local log's high watermark as committed (promotion by fiat),
	// not just the first.
	mu        sync.Mutex
	committed atomic.Int64
	leading   atomic.Bool

	seqs      map[uint64]batchMeta // pid -> last batch
	metas     metaJournal          // recent batch journal
	remoteHWM int64                // committed watermark heard from the leader
	followHWM []int64              // per reps entry: last watermark that follower acked (0: none)
	replEpoch int64                // highest epoch an inbound replicate carried
	syncing   bool                 // mid-takeover: no leadership yet

	// saveMu serializes state.json writes so a slower older snapshot can
	// never overwrite a newer one; dirty marks the partition for the
	// next write-behind flush.
	saveMu sync.Mutex
	dirty  atomic.Bool
}

func (ps *partState) String() string { return ps.topic + "/" + strconv.Itoa(ps.partition) }

// peer is one static member as this node sees it.
type peer struct {
	id, addr  string
	st        peerStatus // liveness in this node's view (zero: alive, version 0)
	miss      int        // consecutive failed probes
	seen      bool       // observed alive at least once
	conn      *client
	repl      atomic.Pointer[replInstruments] // replication series, once a registry is attached
	probing   bool                            // dead, with a slow probe in flight
	pendAlive peerStatus                      // gossiped resurrection awaiting probe proof (Ver 0: none)
}

// ClusterNode is one broker's cluster brain, attached to its TCP server.
type ClusterNode struct {
	cfg     NodeConfig
	b       *Broker
	members []string         // all member ids, sorted
	peers   map[string]*peer // one per member, never changes
	self    *peer

	started time.Time

	mu          sync.Mutex
	epoch       int64
	selfDeadVer int64 // highest version anyone declared US dead at
	joining     bool  // not yet announced: no leadership, no replication in

	// reg is the metrics registry handed to RegisterMetrics (nil until
	// then); replicates observe their per-follower series on it.
	reg atomic.Pointer[metrics.Registry]

	rejoinWake chan struct{} // signaled when a deposal demotes us mid-run

	// stateDirty is set after a partition is marked dirty (noteStateDirty),
	// so an idle flush tick returns without walking the partitions.
	stateDirty atomic.Bool

	done      chan struct{}
	wg        sync.WaitGroup
	closeOnce sync.Once
}

// NewClusterNode validates the config and returns a node. On a durable
// broker it also loads the persisted per-partition cluster state and
// truncates each recovered log back to its persisted committed
// watermark — records past it were never acked and may diverge from
// the cluster. Call Start (once the node is attached to a serving
// Server) to run the join handshake and begin heartbeating.
func NewClusterNode(b *Broker, cfg NodeConfig) (*ClusterNode, error) {
	if cfg.ID == "" {
		return nil, fmt.Errorf("broker: cluster node needs an id")
	}
	if _, ok := cfg.Peers[cfg.ID]; !ok {
		return nil, fmt.Errorf("broker: node id %q missing from peer map", cfg.ID)
	}
	if len(cfg.Peers) >= noNode { // a meta names members in two bytes
		return nil, fmt.Errorf("broker: %d members exceed the limit of %d", len(cfg.Peers), noNode-1)
	}
	if cfg.Replicas < 1 {
		cfg.Replicas = 2
	}
	if cfg.Replicas > len(cfg.Peers) {
		cfg.Replicas = len(cfg.Peers)
	}
	if cfg.MinISR < 1 || cfg.MinISR > cfg.Replicas {
		cfg.MinISR = cfg.Replicas
	}
	if cfg.HeartbeatEvery <= 0 {
		cfg.HeartbeatEvery = 250 * time.Millisecond
	}
	if cfg.FailAfter < 1 {
		cfg.FailAfter = 3
	}
	if cfg.DialTimeout == 0 {
		cfg.DialTimeout = DefaultDialTimeout
	}
	if cfg.ProbeTimeout == 0 {
		cfg.ProbeTimeout = 4 * cfg.HeartbeatEvery
		if cfg.ProbeTimeout < time.Second {
			cfg.ProbeTimeout = time.Second
		}
	}
	if cfg.RPCTimeout == 0 {
		cfg.RPCTimeout = 10 * time.Second
	}
	cfg.Log = orDiscard(cfg.Log).With("node", cfg.ID)
	members := make([]string, 0, len(cfg.Peers))
	peers := make(map[string]*peer, len(cfg.Peers))
	for id, addr := range cfg.Peers {
		members = append(members, id)
		peers[id] = &peer{id: id, addr: addr}
	}
	sort.Strings(members)
	n := &ClusterNode{
		cfg:        cfg,
		b:          b,
		members:    members,
		peers:      peers,
		self:       peers[cfg.ID],
		started:    time.Now(),
		joining:    true,
		rejoinWake: make(chan struct{}, 1),
		done:       make(chan struct{}),
	}
	if err := n.loadState(); err != nil {
		return nil, err
	}
	return n, nil
}

// ID returns the node's member id.
func (n *ClusterNode) ID() string { return n.cfg.ID }

// Start launches the join handshake and the heartbeat loop. Safe to
// call once, after the node's server is accepting connections.
func (n *ClusterNode) Start() {
	n.wg.Add(3)
	go n.joinLoop()
	go n.heartbeatLoop()
	go n.stateFlushLoop()
}

// Close stops heartbeating and closes peer connections.
func (n *ClusterNode) Close() {
	n.closeOnce.Do(func() {
		close(n.done)
		n.wg.Wait()
		n.mu.Lock()
		for _, p := range n.peers {
			n.closeConnLocked(p)
		}
		n.mu.Unlock()
	})
}

// part returns this node's record of one partition. The broker resolves
// the topic and range-checks the index first, so a record exists only
// for a partition the broker holds.
func (n *ClusterNode) part(topic string, partition int) (*partState, error) {
	p, err := n.b.partition(topic, partition)
	if err != nil {
		return nil, err
	}
	return n.record(p, topic, partition), nil
}

// parts returns this node's record of every partition the broker holds,
// in topic then partition order.
func (n *ClusterNode) parts() []*partState {
	var out []*partState
	for _, name := range n.b.topicNames() {
		t, err := n.b.topic(name)
		if err != nil {
			break // closed
		}
		out = slices.Grow(out, len(t.partitions))
		for i, p := range t.partitions {
			out = append(out, n.record(p, name, i))
		}
	}
	return out
}

// record returns (creating on first use) this node's record on a
// resolved partition. The replica set is computed once here: with
// static membership rendezvous placement never changes, and recomputing
// the hash ranking on every produce/replicate is measurable on the hot
// path.
func (n *ClusterNode) record(p *partition, topic string, partition int) *partState {
	for {
		cur := p.cl.Load()
		if cur != nil && cur.node == n {
			return cur
		}
		reps := replicasFor(topic, partition, n.members, n.cfg.Replicas)
		ps := &partState{p: p, node: n, topic: topic, partition: partition, reps: reps,
			seqs: make(map[uint64]batchMeta), followHWM: make([]int64, len(reps))}
		if p.cl.CompareAndSwap(cur, ps) {
			return ps
		}
	}
}
