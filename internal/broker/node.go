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
//     observe records that a failover could lose. Replication is
//     group-committed: each leader keeps one coalescing session per
//     follower, and pending chunks from EVERY partition led to that
//     follower drain into a single multi-partition replicate RPC whose
//     one batched ack wakes all parked producers — the fixed per-RPC
//     cost (syscalls, scheduler wakeups, follower CRC verify) is paid
//     per drain, not per (partition, chunk). There is no linger timer:
//     only what is already queued coalesces, so an isolated produce
//     still ships immediately. Followers apply out-of-order arrivals
//     via the gap/backfill protocol below.
//   - a FOLLOWER applies replicated chunks at their exact base offset
//     (idempotently: duplicate prefixes are trimmed, gaps answered with
//     the local watermark so the leader backfills) and tracks producer
//     sequence numbers, so after a promotion it can deduplicate a
//     producer's retry of a batch the dead leader already replicated.
//     Each chunk carries the leader's committed watermark, which the
//     follower persists — the truncation point of its next restart.
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
// committed watermark (discarding divergent uncommitted tails), and
// announced itself with a bumped version. Catch-up then rides the
// ordinary replication backfill. The no-loss guarantee holds when
// MinISR == Replicas; with fewer required acks, records on the
// minority side of a failover can be lost, exactly as in Kafka with
// acks < all.
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
//     never changes. id and addr never change; n.mu guards the rest.
//     A session's own fields are guarded by replSess.mu.
//
// Lock order: partState.mu → n.mu and partState.saveMu → n.mu. n.mu is
// never held across a broker call or an RPC; replSess.mu is a leaf.

import (
	"errors"
	"fmt"
	"log/slog"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"streamapprox/internal/broker/storage"
	"streamapprox/internal/metrics"
)

// peerStatus is one member's liveness in a node's view: Dead plus the
// status version (incarnation) of the observation. Higher versions win
// on merge; only a member itself announces its own resurrection.
type peerStatus struct {
	Dead bool  `json:"dead,omitempty"`
	Ver  int64 `json:"ver,omitempty"`
}

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
	// RPCTimeout bounds every other peer RPC — replication pushes,
	// rejoin catch-up fetches, meta pulls (default 10s). A replication
	// push into a stalled follower times out, counts as a probe
	// failure, and after FailAfter failures the follower is declared
	// dead and drops out of the ISR — instead of wedging the leader's
	// send window forever.
	RPCTimeout time.Duration
	// Log, when set, receives membership and replication log lines,
	// each carrying node=ID. Nil is silent.
	Log *slog.Logger
}

const (
	// startupGrace is how long failures against a peer that was NEVER
	// seen alive are forgiven — cluster members boot at different times.
	startupGrace = 10 * time.Second
	// replWindow bounds the chunks one follower-session drain coalesces
	// into a single multi-partition replicate RPC. The session queue
	// itself is unbounded — its natural bound is the number of produce
	// handlers parked on their acks.
	replWindow = 32
	// stateFlushEvery is the write-behind interval for the hot-path
	// state.json rewrites (committed watermark + producer dedup table):
	// produce and replicated-append mark the partition dirty and a
	// background loop coalesces the rewrites. Control-plane transitions
	// (rejoin truncation, takeover) still write synchronously, and under
	// the SyncAlways policy every state write is synchronous — the
	// acked-means-durable guarantee needs the watermark on disk before
	// the ack.
	stateFlushEvery = 25 * time.Millisecond
)

// prodSeq is the last applied produce of one producer on one partition,
// kept on every replica so a post-failover retry deduplicates.
type prodSeq struct {
	seq  uint64
	base int64
	end  int64
}

// batchMeta identifies one idempotent producer batch inside a partition
// log. Replicas keep a bounded journal of recent batches and ship the
// entries covering each replicated chunk alongside it, so a follower
// learns the dedup state for EVERY producer whose records reach it —
// including records that arrived inside another producer's backfill —
// and a promotion never forgets a batch it physically holds.
type batchMeta struct {
	pid  uint64
	seq  uint64
	base int64
	end  int64
}

// metaJournalCap bounds the per-partition batch journal. Backfills
// deeper than this many batches lose dedup coverage for the oldest
// entries, which only matters for a follower that lagged that far
// without being declared dead.
const metaJournalCap = 256

// deadProbeEvery is how many heartbeat ticks pass between probes of a
// peer marked dead — the channel through which mutually-partitioned
// halves exchange views again once the network heals.
const deadProbeEvery = 8

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

	seqs      map[uint64]prodSeq // pid -> last batch
	metas     []batchMeta        // recent batch journal, oldest first
	remoteHWM int64              // committed watermark heard from the leader
	followHWM []int64            // per reps entry: last watermark that follower acked (0: none)
	replEpoch int64              // highest epoch an inbound replicate carried
	syncing   bool               // mid-takeover: no leadership yet

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
	sess      *replSess  // coalescing replication session to this follower
	probing   bool       // dead, with a slow probe in flight
	pendAlive peerStatus // gossiped resurrection awaiting probe proof (Ver 0: none)
}

// partitionState is the on-disk cluster state of one partition, stored
// as state.json next to its segments: the committed watermark (the
// restart truncation point) and the producer dedup table and journal.
type partitionState struct {
	Committed int64           `json:"committed"`
	Producers []producerEntry `json:"producers,omitempty"`
	Journal   []producerEntry `json:"journal,omitempty"`
}

type producerEntry struct {
	PID  uint64 `json:"pid"`
	Seq  uint64 `json:"seq"`
	Base int64  `json:"base"`
	End  int64  `json:"end"`
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
	// then); session drains observe their coalescing histograms on it.
	reg atomic.Pointer[metrics.Registry]

	rejoinWake chan struct{} // signaled when a deposal demotes us mid-run

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
		p := &peer{id: id, addr: addr}
		p.sess = &replSess{peer: p}
		peers[id] = p
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

// loadState recovers the persisted cluster state of every local
// partition and applies the restart truncation rule.
func (n *ClusterNode) loadState() error {
	if n.b.Dir() == "" {
		return nil
	}
	for _, ps := range n.parts() {
		var st partitionState
		ok, err := storage.LoadJSON(n.statePath(ps), &st)
		if err != nil {
			return err
		}
		if !ok {
			continue
		}
		if err := ps.p.truncate(st.Committed); err != nil {
			return fmt.Errorf("broker: recover %s: %w", ps, err)
		}
		ps.remoteHWM = st.Committed
		for _, pe := range st.Producers {
			if pe.End <= st.Committed { // past it, the covered records were truncated away
				ps.seqs[pe.PID] = prodSeq{seq: pe.Seq, base: pe.Base, end: pe.End}
			}
		}
		for _, pe := range st.Journal {
			if pe.End <= st.Committed {
				ps.metas = append(ps.metas, batchMeta{pid: pe.PID, seq: pe.Seq, base: pe.Base, end: pe.End})
			}
		}
		n.cfg.Log.Info("recovered partition", "partition", ps.String(), "committed", st.Committed)
	}
	return nil
}

func (n *ClusterNode) statePath(ps *partState) string {
	return filepath.Join(n.b.partitionDir(ps.topic, ps.partition), "state.json")
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
			seqs: make(map[uint64]prodSeq), followHWM: make([]int64, len(reps))}
		if p.cl.CompareAndSwap(cur, ps) {
			return ps
		}
	}
}

// ---- membership view ----

func (n *ClusterNode) heartbeatLoop() {
	defer n.wg.Done()
	t := time.NewTicker(n.cfg.HeartbeatEvery)
	defer t.Stop()
	tick := 0
	for {
		select {
		case <-n.done:
			return
		case <-t.C:
		}
		tick++
		for _, id := range n.members {
			p := n.peers[id]
			if p == n.self {
				continue
			}
			if n.isDead(p) {
				// Slow-probe dead peers to catch healed partitions — in
				// the background, because dialing an address that is
				// actually down can block for the full dial timeout and
				// must not stall liveness probing of healthy peers.
				if tick%deadProbeEvery == 0 {
					n.probeDeadAsync(p)
				}
				continue
			}
			n.probe(p)
		}
	}
}

// probeDeadAsync probes one dead peer off the heartbeat loop, at most
// one probe in flight per peer.
func (n *ClusterNode) probeDeadAsync(p *peer) {
	n.mu.Lock()
	if p.probing {
		n.mu.Unlock()
		return
	}
	p.probing = true
	n.mu.Unlock()
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		n.probe(p)
		n.mu.Lock()
		p.probing = false
		n.mu.Unlock()
	}()
}

// probe heartbeats one peer, exchanging views: the request carries our
// epoch + status view, the response the peer's, and both sides merge.
func (n *ClusterNode) probe(p *peer) {
	cli, err := n.peerClient(p)
	if err != nil {
		n.markFailure(p, err)
		return
	}
	epoch, view := n.viewCopy()
	repoch, rview, err := cli.ping(n.cfg.ProbeTimeout, n.cfg.ID, epoch, view)
	if err != nil {
		// Ping IS the liveness probe, so any failure counts — but only a
		// transport failure taints the connection.
		if !isRemoteErr(err) {
			n.dropConn(p, cli)
		}
		n.markFailure(p, err)
		return
	}
	n.adoptPendingAlive(p)
	n.markAlive(p)
	n.mergeView(repoch, rview)
}

// adoptPendingAlive completes a gossiped resurrection once this node
// has proof it can actually reach the peer (a probe just succeeded).
func (n *ClusterNode) adoptPendingAlive(p *peer) {
	n.mu.Lock()
	st := p.pendAlive
	if st.Ver == 0 {
		n.mu.Unlock()
		return
	}
	p.pendAlive = peerStatus{}
	if !p.st.Dead || st.Ver <= p.st.Ver {
		n.mu.Unlock()
		return
	}
	p.st = st
	p.miss = 0
	n.epoch++
	epoch := n.epoch
	n.mu.Unlock()
	n.cfg.Log.Info("peer rejoined", "peer", p.id, "ver", st.Ver, "epoch", epoch)
}

// viewCopy returns the current epoch and a copy of the status view:
// every member with a status other than (alive, version 0), and always
// this node's own entry (its self-announcement).
func (n *ClusterNode) viewCopy() (int64, map[string]peerStatus) {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make(map[string]peerStatus, len(n.peers))
	for id, p := range n.peers {
		if p.st != (peerStatus{}) || p == n.self {
			out[id] = p.st
		}
	}
	return n.epoch, out
}

// mergeView folds a peer's view into ours: per-member entries with a
// higher status version win; epochs take the max; ids that are not
// members are ignored. One exception: a
// dead→alive transition is never adopted on hearsay — it parks in
// pendAlive until our own probe of that peer succeeds. A node never
// adopts "dead" for ITSELF — instead, learning that the cluster deposed it
// demotes it back to joining, so it resyncs its log and re-announces
// with a version above the accusation.
func (n *ClusterNode) mergeView(epoch int64, remote map[string]peerStatus) {
	n.mu.Lock()
	demoted := false
	var verify []*peer
	for id, st := range remote {
		p := n.peers[id]
		if p == nil {
			continue
		}
		if p == n.self {
			if st.Dead && st.Ver > n.selfDeadVer {
				n.selfDeadVer = st.Ver
			}
			if st.Dead && !n.joining && st.Ver >= p.st.Ver {
				n.joining = true
				demoted = true
			}
			continue
		}
		cur := p.st
		if st.Ver > cur.Ver {
			if cur.Dead && !st.Dead {
				// Gossiped resurrection: do NOT adopt it on hearsay. Under
				// an asymmetric partition the unreachable node can still
				// talk OUT, so its rejoin announcements keep arriving while
				// every probe of it times out — adopting here would flap
				// leadership back onto a node nobody can reach. Stash the
				// offer and verify with our own probe (adoptPendingAlive).
				if st.Ver > p.pendAlive.Ver {
					p.pendAlive = st
					verify = append(verify, p)
				}
				continue
			}
			p.st = st
			if st.Dead != cur.Dead {
				n.epoch++
				if st.Dead {
					n.cfg.Log.Info("peer dead by gossip", "peer", id, "ver", st.Ver)
					n.closeConnLocked(p)
				}
			}
		}
	}
	if epoch > n.epoch {
		n.epoch = epoch
	}
	n.mu.Unlock()
	for _, p := range verify {
		n.probeDeadAsync(p)
	}
	if demoted {
		n.cfg.Log.Warn("deposed by the cluster; demoting to rejoin")
		// Leadership is gone: tear down the follower sessions so a
		// chunk queued under the old reign cannot be delivered after the
		// takeover handshake (queued producers get an error and retry
		// against the new leader; a batch already on the wire is fenced
		// by the follower's per-partition replication epoch).
		n.closeSessions()
		select {
		case n.rejoinWake <- struct{}{}:
		default:
		}
	}
}

// handlePing serves the "ping" control op: merge the sender's view,
// answer with ours. An inbound ping proves the sender has booted and
// can reach US — it does NOT prove we can reach the sender, so it must
// not reset the probe-failure counter: under an asymmetric partition
// (the peer's inbound traffic blackholed, its outbound fine) its pings
// keep arriving while our probes of it all time out, and resetting the
// counter here would mask the partition forever. Liveness is earned
// only by answering OUR probes; resurrection of a dead peer flows
// through mergeView's version bumps.
func (n *ClusterNode) handlePing(sender string, epoch int64, view map[string]peerStatus) (int64, map[string]peerStatus) {
	n.mergeView(epoch, view)
	if p := n.peers[sender]; p != nil {
		n.markSeen(p)
	}
	return n.viewCopy()
}

func (n *ClusterNode) isDead(p *peer) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return p.st.Dead
}

func (n *ClusterNode) isJoining() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.joining
}

// markFailure counts one failed probe or replication call against a
// peer; FailAfter consecutive failures declare it dead (bumping its
// status version and the epoch), which moves leadership of its
// partitions to the next replica.
func (n *ClusterNode) markFailure(p *peer, err error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if p.st.Dead {
		return
	}
	if !p.seen && time.Since(n.started) < startupGrace {
		return // peer may simply not have booted yet
	}
	p.miss++
	if p.miss < n.cfg.FailAfter {
		return
	}
	p.st = peerStatus{Dead: true, Ver: p.st.Ver + 1}
	n.epoch++
	n.closeConnLocked(p)
	n.cfg.Log.Warn("peer declared dead", "peer", p.id, "epoch", n.epoch, "err", err)
}

func (n *ClusterNode) markAlive(p *peer) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if !p.st.Dead {
		p.miss = 0
		p.seen = true
	}
}

// markSeen records that a peer has demonstrably booted (it contacted
// us), ending its startupGrace — without vouching for our ability to
// reach it (see handlePing).
func (n *ClusterNode) markSeen(p *peer) {
	n.mu.Lock()
	defer n.mu.Unlock()
	p.seen = true
}

// peerClient returns (dialing if needed) the connection to a peer.
func (n *ClusterNode) peerClient(p *peer) (*client, error) {
	n.mu.Lock()
	c := p.conn
	n.mu.Unlock()
	if c != nil {
		return c, nil
	}
	// Peer RPCs (replication pushes, rejoin fetches, meta) run under
	// RPCTimeout as the connection default; probes override per-op.
	c, err := dial(p.addr, n.cfg.DialTimeout, n.cfg.RPCTimeout)
	if err != nil {
		return nil, err
	}
	n.mu.Lock()
	if prev := p.conn; prev != nil { // lost the dial race; keep the first
		n.mu.Unlock()
		_ = c.Close()
		return prev, nil
	}
	p.conn = c
	n.mu.Unlock()
	return c, nil
}

// dropConn discards a broken peer connection (only if still current).
func (n *ClusterNode) dropConn(p *peer, c *client) {
	n.mu.Lock()
	if p.conn == c {
		p.conn = nil
	}
	n.mu.Unlock()
	_ = c.Close()
}

// closeConnLocked closes and forgets a peer's connection (n.mu held).
func (n *ClusterNode) closeConnLocked(p *peer) {
	if p.conn != nil {
		_ = p.conn.Close()
		p.conn = nil
	}
}

// ---- join / rejoin ----

// joinLoop runs the join handshake at startup and again whenever the
// node is demoted (deposed by the cluster's failure detector).
func (n *ClusterNode) joinLoop() {
	defer n.wg.Done()
	for {
		n.syncAndJoin()
		select {
		case <-n.done:
			return
		case <-n.rejoinWake:
		}
	}
}

// syncAndJoin brings a joining node up to date and announces it:
//
//  1. exchange views with every reachable peer (learning the highest
//     version at which anyone declared us dead, and the freshest
//     metadata view by epoch), and create any topic the cluster grew
//     while we were away;
//  2. for every partition we replicate, truncate our log back to the
//     current leader's committed watermark (records past it were never
//     acked and may diverge from what the cluster committed) and pull
//     the committed records we missed;
//  3. announce ourselves alive with a status version above every
//     accusation, leaving the joining state;
//  4. for partitions whose leadership falls back to us (we are the
//     first live replica in rendezvous order), keep pulling from the
//     interim leader until it has adopted our announcement and
//     deferred — only then serve leadership. Without this handshake a
//     produce the interim leader acked between our catch-up and its
//     handoff could be overwritten at the same offsets.
//
// Follower catch-up beyond that rides the ordinary replication
// backfill on the next produce.
func (n *ClusterNode) syncAndJoin() {
	// Leadership from a previous incarnation is void: every partition
	// re-adopts its (possibly truncated) watermark when leadership is
	// next acquired, and any replication sessions of the old reign are
	// torn down (no-op at first boot).
	for _, ps := range n.parts() {
		ps.leading.Store(false)
	}
	n.closeSessions()
	var bestMeta *ClusterMeta
	for _, id := range n.members {
		p := n.peers[id]
		if p == n.self {
			continue
		}
		cli, err := n.peerClient(p)
		if err != nil {
			continue
		}
		epoch, view := n.viewCopy()
		if repoch, rview, err := cli.ping(n.cfg.ProbeTimeout, n.cfg.ID, epoch, view); err == nil {
			n.mergeView(repoch, rview)
		} else {
			if !isRemoteErr(err) {
				n.dropConn(p, cli)
			}
			continue
		}
		if m, err := cli.Meta(); err == nil {
			if bestMeta == nil || m.Epoch > bestMeta.Epoch {
				bestMeta = m
			}
		}
	}
	var takeovers []takeover
	if bestMeta != nil {
		n.mu.Lock()
		if bestMeta.Epoch > n.epoch {
			n.epoch = bestMeta.Epoch
		}
		n.mu.Unlock()
		// Topics created while we were down: create them locally so
		// replication to us has somewhere to land.
		for t, ti := range bestMeta.Topics {
			if _, err := n.b.Partitions(t); err != nil {
				if err := n.b.CreateTopic(t, len(ti.Partitions)); err != nil {
					n.cfg.Log.Error("rejoin: create topic failed", "topic", t, "err", err)
				}
			}
		}
		takeovers = n.resyncPartitions(bestMeta)
	}
	n.mu.Lock()
	ver := n.self.st.Ver
	if n.selfDeadVer >= ver {
		ver = n.selfDeadVer + 1
	}
	n.self.st = peerStatus{Dead: false, Ver: ver}
	n.joining = false
	n.epoch++
	epoch := n.epoch
	n.mu.Unlock()
	n.cfg.Log.Info("joined", "ver", ver, "epoch", epoch, "takeovers", len(takeovers))
	n.finishTakeovers(takeovers)
}

// takeover is one partition whose leadership falls back to this node
// once its rejoin announcement spreads.
type takeover struct {
	ps        *partState
	oldLeader *peer
}

// resyncPartitions runs the pre-announce log repair for every local
// replica partition: truncate divergence back to the current leader's
// committed watermark, then pull the committed records we missed. It
// returns the partitions whose leadership will fall back to us, after
// marking them as syncing (no leadership until the handshake is done).
func (n *ClusterNode) resyncPartitions(m *ClusterMeta) []takeover {
	var takeovers []takeover
	for t, ti := range m.Topics {
		for p := range ti.Partitions {
			ldr := n.peers[ti.Partitions[p].Leader]
			if ldr == nil || ldr == n.self {
				continue
			}
			ps, err := n.part(t, p)
			if err != nil || !slices.Contains(ps.reps, n.cfg.ID) {
				continue
			}
			committed, err := n.leaderCommitted(ldr, ps)
			if err != nil {
				n.cfg.Log.Warn("rejoin: leader unreachable", "partition", ps.String(), "leader", ldr.id, "err", err)
				continue
			}
			n.truncateDivergence(ps, ldr.id, committed)
			if err := n.pullCommitted(ldr, ps); err != nil {
				n.cfg.Log.Warn("rejoin: pull failed", "partition", ps.String(), "leader", ldr.id, "err", err)
			}
			// Will leadership fall back to us once we are alive again?
			n.mu.Lock()
			back := n.leaderLocked(ps, false) == n.cfg.ID
			if back {
				ps.syncing = true
			}
			n.mu.Unlock()
			if back {
				takeovers = append(takeovers, takeover{ps: ps, oldLeader: ldr})
			}
		}
	}
	return takeovers
}

// leaderCommitted asks a (possibly former) leader for its committed
// watermark of a partition via the replica-fetch surface, which is not
// leadership-gated.
func (n *ClusterNode) leaderCommitted(ldr *peer, ps *partState) (int64, error) {
	cli, err := n.peerClient(ldr)
	if err != nil {
		return 0, err
	}
	return cli.replicaHWM(n.cfg.ID, ps.topic, ps.partition)
}

// truncateDivergence cuts one local partition log back to the leader's
// committed watermark and drops dedup state past the cut.
func (n *ClusterNode) truncateDivergence(ps *partState, ldr string, committed int64) {
	local := ps.p.log.HighWatermark()
	if local <= committed {
		return
	}
	if err := ps.p.truncate(committed); err != nil {
		n.cfg.Log.Error("rejoin: truncate failed", "partition", ps.String(), "err", err)
		return
	}
	ps.leading.Store(false)
	n.mu.Lock()
	if ps.committed.Load() > committed {
		ps.committed.Store(committed) // the cut discarded those records
	}
	ps.remoteHWM = min(ps.remoteHWM, committed)
	for pid, last := range ps.seqs {
		if last.end > committed {
			delete(ps.seqs, pid)
		}
	}
	ps.metas = slices.DeleteFunc(ps.metas, func(bm batchMeta) bool { return bm.end > committed })
	n.mu.Unlock()
	n.saveClusterState(ps)
	n.cfg.Log.Info("rejoin: truncated divergence", "partition", ps.String(), "from", local,
		"leader", ldr, "committed", committed)
}

// pullCommitted drains the committed records this replica is missing
// from a peer via replica-fetch, applying them through the idempotent
// replicated-append path: raw frame chunks over the rfetch op, one
// buffer reused across rounds, appended verbatim.
func (n *ClusterNode) pullCommitted(ldr *peer, ps *partState) error {
	cli, err := n.peerClient(ldr)
	if err != nil {
		return err
	}
	var buf []byte
	for {
		local := ps.p.log.HighWatermark()
		// replicaFetch always serves from the requested offset, so the
		// chunk's base is `local` — frames carry no offsets of their own.
		frames, count, err := cli.replicaFetchFrames(n.cfg.ID, ps.topic, ps.partition, local, 4096, buf[:0])
		if err != nil {
			return err
		}
		buf = frames[:0]
		if count == 0 {
			n.saveClusterState(ps)
			return nil
		}
		hwm, err := ps.p.replicateAppend(local, frames, count)
		if err != nil {
			return err
		}
		n.mu.Lock()
		ps.remoteHWM = max(ps.remoteHWM, hwm)
		n.mu.Unlock()
	}
}

// finishTakeovers completes the leadership handoff of each pending
// takeover: keep pulling the interim leader's committed records until
// it has adopted our rejoin announcement and deferred (its own
// metadata names us leader), then serve. If the interim leader dies
// mid-handshake, we promote with what we hold — the same guarantee as
// any failover.
func (n *ClusterNode) finishTakeovers(takeovers []takeover) {
	deadline := time.Now().Add(30 * time.Second)
	for _, to := range takeovers {
		ps := to.ps
		for !n.isDead(to.oldLeader) && !time.Now().After(deadline) {
			deferred := false
			if cli, err := n.peerClient(to.oldLeader); err == nil {
				if m, err := cli.Meta(); err == nil {
					deferred = m.LeaderOf(ps.topic, ps.partition) == n.cfg.ID
				}
			}
			err := n.pullCommitted(to.oldLeader, ps)
			if err == nil && deferred {
				// The old leader had already deferred before this pull,
				// so its committed watermark was final and is drained.
				break
			}
			select {
			case <-n.done:
				return
			case <-time.After(5 * time.Millisecond):
			}
		}
		n.mu.Lock()
		ps.syncing = false
		n.mu.Unlock()
		n.saveClusterState(ps)
		n.cfg.Log.Info("took over leadership", "partition", ps.String(), "from", to.oldLeader.id)
	}
}

// ---- placement ----

// leaderLocked is the leader rule: the first live replica in rendezvous
// order ("" if none live). This node passes itself over while joining
// or mid-takeover of the partition (n.mu held).
func (n *ClusterNode) leaderLocked(ps *partState, joining bool) string {
	for _, id := range ps.reps {
		if id == n.cfg.ID && (joining || ps.syncing) {
			continue
		}
		if !n.peers[id].st.Dead {
			return id
		}
	}
	return ""
}

// leaderFor returns the current leader of a partition in this node's
// view.
func (n *ClusterNode) leaderFor(ps *partState) string {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.leaderLocked(ps, n.joining)
}

// meta builds the metadata snapshot the "meta" control op serves.
func (n *ClusterNode) meta() *ClusterMeta {
	parts := n.parts()
	m := &ClusterMeta{Topics: make(map[string]TopicInfo)}
	n.mu.Lock()
	defer n.mu.Unlock()
	m.Epoch = n.epoch
	for _, id := range n.members {
		p := n.peers[id]
		m.Nodes = append(m.Nodes, NodeInfo{ID: id, Addr: p.addr, Alive: !p.st.Dead})
	}
	for _, ps := range parts {
		ti := m.Topics[ps.topic]
		ti.Partitions = append(ti.Partitions, PartitionInfo{Leader: n.leaderLocked(ps, n.joining), Replicas: ps.reps})
		m.Topics[ps.topic] = ti
	}
	return m
}

// ---- leader data path ----

// lead records that this node now serves the partition as leader. On
// each ACQUISITION of leadership the committed watermark adopts the
// local log's high watermark: everything a promoted replica holds was
// replicated to it and becomes committed by fiat, the classic
// bounded-by-the-replicated-HWM promotion rule. (The flag is cleared
// when replication from another leader arrives, or on a demotion — so
// a RE-promotion adopts again.)
func (ps *partState) lead() {
	if ps.leading.Load() {
		return
	}
	ps.mu.Lock()
	defer ps.mu.Unlock()
	if ps.leading.Load() {
		return
	}
	if hwm := ps.p.log.HighWatermark(); hwm > ps.committed.Load() {
		ps.committed.Store(hwm)
	}
	ps.leading.Store(true)
}

func (n *ClusterNode) lastSeq(ps *partState, pid uint64) (prodSeq, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	last, ok := ps.seqs[pid]
	return last, ok
}

// noteBatch records a producer's batch — in the dedup table (if newer
// than what is known) and in the partition's bounded replication
// journal.
func (n *ClusterNode) noteBatch(ps *partState, bm batchMeta) {
	if bm.pid == 0 {
		return
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if cur, ok := ps.seqs[bm.pid]; !ok || bm.seq > cur.seq {
		ps.seqs[bm.pid] = prodSeq{seq: bm.seq, base: bm.base, end: bm.end}
	}
	ps.metas = append(ps.metas, bm)
	if len(ps.metas) > metaJournalCap {
		ps.metas = ps.metas[len(ps.metas)-metaJournalCap:]
	}
}

// metasInRange returns the journal entries overlapping [from, to) — the
// dedup state shipped with a replicated chunk of that range.
func (n *ClusterNode) metasInRange(ps *partState, from, to int64) []batchMeta {
	n.mu.Lock()
	defer n.mu.Unlock()
	var out []batchMeta
	for _, bm := range ps.metas {
		if bm.end > from && bm.base < to {
			out = append(out, bm)
		}
	}
	return out
}

// producePartFrames is the leader-side handling of a partitioned
// produce, operating on a validated frame chunk: dedup by (pid, seq),
// append the bytes verbatim, replicate the same bytes, ack once MinISR
// (shrunk to the live replica count) replicas hold them. The chunk is
// never re-encoded — the CRCs computed where the bytes entered the
// process travel to disk and to every follower untouched. Only the
// dedup-check + append runs under the partition lock; replication is
// pipelined across in-flight batches. trace is the producer request's
// trace ID, forwarded on every replicate so a follower's wire log shows
// the same ID the edge minted (0 = untraced).
func (n *ClusterNode) producePartFrames(trace uint64, topic string, partition int, pid, seq uint64, frames []byte, count int) (int, error) {
	ps, err := n.leaderState(topic, partition)
	if err != nil {
		return 0, err
	}
	var base, end int64
	redrive := false
	ps.mu.Lock()
	if n.isJoining() { // deposed between the leadership check and here
		ps.mu.Unlock()
		return 0, notLeaderError("")
	}
	if pid != 0 {
		if last, ok := n.lastSeq(ps, pid); ok && seq <= last.seq {
			if seq < last.seq || ps.committed.Load() >= last.end {
				// Already appended and committed: a duplicate retry.
				ps.mu.Unlock()
				return count, nil
			}
			// Retry of the latest batch, appended but not yet committed
			// (e.g. the previous attempt failed its replica acks): the
			// records are in the log, so re-drive replication only.
			base, end, redrive = last.base, last.end, true
		}
	}
	if !redrive {
		base, err = ps.p.appendFrames(frames, count)
		if err != nil {
			ps.mu.Unlock()
			return 0, err
		}
		end = base + int64(count)
		n.noteBatch(ps, batchMeta{pid: pid, seq: seq, base: base, end: end})
	}
	ps.mu.Unlock()
	if redrive {
		// The retried batch is already in the log; re-read its exact
		// frames and drive replication again.
		var fn int
		if frames, fn, err = ps.p.log.ReadFrames(base, int(end-base), nil); err != nil {
			return 0, err
		}
		if int64(fn) < end-base {
			return 0, fmt.Errorf("broker: redrive short read at %d", base)
		}
	}
	if err := n.replicateOut(trace, ps, base, end, frames); err != nil {
		return 0, err
	}
	n.noteStateDirty(ps)
	return count, nil
}

// ---- per-follower replication sessions (group commit) ----

// replBatchMaxBytes caps the frame payload one session drain packs into
// a single multi-partition RPC — well under maxFrame, with headroom for
// headers and journal metas.
const replBatchMaxBytes = 8 << 20

// errReplSessionClosed fails chunks still parked on a session torn down
// by a demotion or shutdown before the follower acked them. It is a
// local error, not an answered rejection, and never feeds the failure
// detector.
var errReplSessionClosed = errors.New("broker: replication session closed")

// replItem is one appended chunk parked on a follower session, its
// producer blocked on done until the follower acks (or the session
// fails it). frames is a view into the producer request's connection
// buffer — valid only while that producer is parked — so the drainer
// must be completely done with the bytes before signaling done.
type replItem struct {
	trace     uint64
	ps        *partState
	base, end int64
	frames    []byte
	done      chan error
}

// replPipeline caps concurrent drains per follower session. One slot
// would force pure group commit — maximal coalescing, but every chunk
// arriving mid-RPC waits a full round trip it used to overlap; the
// extra slot keeps the old pipelining for the uncontended case while a
// queue that outruns both slots still coalesces into the next drain.
const replPipeline = 2

// replSess is one leader→follower replication session: a coalescing
// queue drained by the producing handlers themselves (combining lock —
// no dedicated goroutine, no handoff on the uncontended path). The
// queue is a mutex-guarded slice, not a channel: close must atomically
// cut off enqueues AND claim the backlog to fail it, which a buffered
// channel cannot do without racing senders (an item landing after the
// final drain would park its producer forever).
type replSess struct {
	peer     *peer
	mu       sync.Mutex
	wait     []*replItem
	closed   bool
	inflight int // drains currently holding a send slot

	// instr is the session's metric handles, resolved on the first drain
	// after a registry is attached.
	instr atomic.Pointer[replInstruments]
}

// replInstruments is one follower's replication series.
type replInstruments struct {
	partitions, bytes *metrics.Histogram
	wakeups, batches  *metrics.Counter
}

// enqueue parks one chunk on the session, reporting false if the
// session is already closed (the caller fails the chunk locally).
func (s *replSess) enqueue(it *replItem) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	s.wait = append(s.wait, it)
	return true
}

// tryAcquire claims a send slot; false means enough drains are already
// in flight — one of their holders will re-check the queue after
// releasing, so a refused caller may safely walk away.
func (s *replSess) tryAcquire() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.inflight >= replPipeline {
		return false
	}
	s.inflight++
	return true
}

func (s *replSess) release() {
	s.mu.Lock()
	s.inflight--
	s.mu.Unlock()
}

func (s *replSess) empty() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.wait) == 0
}

// take claims up to max queued chunks in FIFO order, bounded also by
// total frame bytes so one drain can never overflow the wire frame
// limit (a lone oversized chunk still ships alone — produce requests
// are themselves frame-limited, so it fits).
func (s *replSess) take(max, maxBytes int) []*replItem {
	s.mu.Lock()
	defer s.mu.Unlock()
	count, bytes := 0, 0
	for count < len(s.wait) && count < max {
		bytes += len(s.wait[count].frames)
		if count > 0 && bytes > maxBytes {
			break
		}
		count++
	}
	batch := s.wait[:count:count]
	s.wait = s.wait[count:]
	return batch
}

// close marks the session closed and returns whatever was still queued
// for the caller to fail. Idempotent; later calls return nothing.
func (s *replSess) close() []*replItem {
	s.mu.Lock()
	rest := s.wait
	s.wait = nil
	s.closed = true
	s.mu.Unlock()
	return rest
}

// failSession closes a session and fails everything still queued — the
// demotion drain: parked producers get an answer (and retry against the
// current leader) instead of a stale batch being delivered under a new
// leader's reign.
func (n *ClusterNode) failSession(s *replSess) {
	for _, it := range s.close() {
		it.done <- errReplSessionClosed
	}
}

// closeSessions tears down every follower session, each peer getting a
// fresh one in its place. Called on demotion and when rejoining; an
// in-flight RPC still completes and answers its producers normally (the
// follower-side replication epoch fence is the backstop for batches
// already on the wire).
func (n *ClusterNode) closeSessions() {
	old := make([]*replSess, 0, len(n.peers))
	n.mu.Lock()
	for _, p := range n.peers {
		old = append(old, p.sess)
		p.sess = &replSess{peer: p}
	}
	n.mu.Unlock()
	for _, s := range old {
		n.failSession(s)
	}
}

// driveSession is the combining loop a producer runs after enqueueing:
// claim a send slot, take EVERYTHING queued (group commit — no linger
// timer, only what is already waiting coalesces), ship it as one batch,
// wake every parked producer in one pass, repeat while work remains. A
// caller refused a slot walks away: its item will ride a current slot
// holder's next round, because every holder re-checks the queue AFTER
// releasing — an enqueue that lost the slot race is therefore always
// visible to some holder's re-check, so no item strands.
func (n *ClusterNode) driveSession(s *replSess) {
	for {
		if !s.tryAcquire() {
			return
		}
		batch := s.take(replWindow, replBatchMaxBytes)
		if len(batch) > 0 {
			n.sendBatch(s, batch)
		}
		s.release()
		if s.empty() {
			return
		}
	}
}

// sendSection is one wire section of a drained batch plus the queue
// items it answers for: contiguous chunks of one partition merged in
// queue order.
type sendSection struct {
	sec   replSection
	ps    *partState
	trace uint64
	items []*replItem
}

// buildSections folds a claimed batch into wire sections, merging an
// item into the previous section when it extends the same partition
// contiguously (prev.end == next.base) — this is the leader-side
// produce coalescing: chunks appended while the previous round was in
// flight ride the next round as one section. Merged frames are copied
// into a fresh buffer (each item's frames are only valid while ITS
// producer is parked); a lone item's frames ship as the view the
// producer handed in, copy-free.
func buildSections(batch []*replItem) []*sendSection {
	secs := make([]*sendSection, 0, len(batch))
	for _, it := range batch {
		if len(secs) > 0 {
			last := secs[len(secs)-1]
			tail := last.items[len(last.items)-1]
			if tail.ps == it.ps && tail.end == it.base {
				last.items = append(last.items, it)
				continue
			}
		}
		secs = append(secs, &sendSection{ps: it.ps, trace: it.trace, items: []*replItem{it}})
	}
	for _, sec := range secs {
		first := sec.items[0]
		last := sec.items[len(sec.items)-1]
		sec.sec = replSection{
			topic:     first.ps.topic,
			partition: first.ps.partition,
			base:      first.base,
			count:     int(last.end - first.base),
		}
		if len(sec.items) == 1 {
			sec.sec.frames = first.frames
		} else {
			merged := make([]byte, 0, replItemsBytes(sec.items))
			for _, it := range sec.items {
				merged = append(merged, it.frames...)
			}
			sec.sec.frames = merged
		}
	}
	return secs
}

func replItemsBytes(items []*replItem) int {
	total := 0
	for _, it := range items {
		total += len(it.frames)
	}
	return total
}

// sendBatch ships one drained batch to the follower and answers every
// parked producer. Failure-detector bookkeeping happens here ONCE per
// drain — a coalesced RPC is one probe of the follower however many
// producers it carried, so a single timeout cannot burn through
// FailAfter on its own. Only transport failures feed the detector; an
// answered rejection (fencing, unknown topic, ...) proves the peer
// alive — a deposed leader must not "detect" the healthy majority as
// dead off its own fenced pushes.
func (n *ClusterNode) sendBatch(s *replSess, batch []*replItem) {
	secs := buildSections(batch)
	errs := make([]error, len(secs))
	cli, err := n.peerClient(s.peer)
	if err != nil {
		for i := range errs {
			errs[i] = err
		}
	} else {
		errs = n.shipBatch(cli, s.peer.id, secs)
	}
	var transportErr error
	var answered bool
	for _, e := range errs {
		switch {
		case e == nil:
			answered = true
		case isRemoteErr(e):
			answered = true
		default:
			transportErr = e
		}
	}
	switch {
	case transportErr != nil:
		if cli != nil {
			n.dropConn(s.peer, cli) // transport failure: the conn is suspect
		}
		n.markFailure(s.peer, transportErr)
	case answered:
		n.markAlive(s.peer)
	}
	n.observeBatch(s, secs, len(batch))
	// The group-commit wakeup: one pass over the round's producers.
	// After a done send an item's frames belong to its producer again —
	// nothing may touch them past this point.
	for i, sec := range secs {
		for _, it := range sec.items {
			it.done <- errs[i]
		}
	}
}

// shipBatch delivers the sections to one follower in a single
// replicateMF round-trip, repairing any section the batched ack reports
// short through convergeSection. Each section ships the journal entries
// covering its range, so the follower's dedup table tracks every
// producer whose records it receives, plus the leader's committed
// watermark, which the follower persists as its restart truncation
// point. Returns one error slot per section.
func (n *ClusterNode) shipBatch(cli *client, id string, secs []*sendSection) []error {
	n.mu.Lock()
	epoch := n.epoch
	n.mu.Unlock()
	errs := make([]error, len(secs))
	wire := make([]replSection, len(secs))
	for i, sec := range secs {
		sec.sec.committed = sec.ps.committed.Load()
		sec.sec.metas = n.metasInRange(sec.ps, sec.sec.base, sec.sec.base+int64(sec.sec.count))
		wire[i] = sec.sec
	}
	// One trace can ride the one RPC; the first section's producer wins.
	hwms, err := cli.replicateMF(secs[0].trace, epoch, n.cfg.ID, wire)
	if err != nil {
		for i := range errs {
			errs[i] = err
		}
		return errs
	}
	for i, sec := range secs {
		n.noteFollowerHWM(sec.ps, id, hwms[i])
		if hwms[i] < sec.sec.base+int64(sec.sec.count) {
			errs[i] = n.convergeSection(cli, id, epoch, sec, hwms[i])
		}
	}
	return errs
}

// convergeSection repairs one short-acked section: the follower is
// behind the chunk's base (restart, missed round, or interleaved
// batches), so it is backfilled from its own acked watermark hwm with
// one-section replicate batches until it holds the section's end. The
// backfill bytes are read straight out of the local segment chunks,
// never decoded into records.
func (n *ClusterNode) convergeSection(cli *client, id string, epoch int64, sec *sendSection, hwm int64) error {
	s := sec.sec
	end := s.base + int64(s.count)
	for tries := 0; tries < 8; tries++ {
		fill, fn, err := sec.ps.p.log.ReadFrames(hwm, int(end-hwm), nil)
		if err != nil {
			return err
		}
		if int64(fn) < end-hwm {
			return fmt.Errorf("broker: backfill short read at %d", hwm)
		}
		s.base, s.frames, s.count = hwm, fill, fn
		s.committed = sec.ps.committed.Load()
		s.metas = n.metasInRange(sec.ps, hwm, end)
		hwms, err := cli.replicateMF(sec.trace, epoch, n.cfg.ID, []replSection{s})
		if err != nil {
			return err
		}
		hwm = hwms[0]
		n.noteFollowerHWM(sec.ps, id, hwm)
		if hwm >= end {
			return nil
		}
	}
	return fmt.Errorf("broker: replication to %s did not converge", id)
}

// observeBatch records one drain's coalescing metrics: distinct
// partition sections and payload bytes per batched RPC, and the
// producers woken by its single ack pass. The handles are looked up in
// the registry once per session, not per drain (concurrent first drains
// resolve the same series, so either store wins harmlessly).
func (n *ClusterNode) observeBatch(s *replSess, secs []*sendSection, woken int) {
	in := s.instr.Load()
	if in == nil {
		reg := n.reg.Load()
		if reg == nil {
			return
		}
		lbl := metrics.Labels{"follower": s.peer.id}
		in = &replInstruments{
			partitions: reg.Histogram("broker_replicate_batch_partitions", "partition sections coalesced into one replicate batch", lbl),
			bytes:      reg.Histogram("broker_replicate_batch_bytes", "frame payload bytes shipped in one replicate batch", lbl),
			wakeups:    reg.Counter("broker_replicate_group_wakeups_total", "producers woken by batched replication acks", lbl),
			batches:    reg.Counter("broker_replicate_batches_total", "replication batches drained", lbl),
		}
		s.instr.Store(in)
	}
	bytes := 0
	for _, sec := range secs {
		bytes += len(sec.sec.frames)
	}
	in.partitions.Observe(float64(len(secs)))
	in.bytes.Observe(float64(bytes))
	in.wakeups.Add(float64(woken))
	in.batches.Inc()
}

// replicateOut parks the frame chunk covering [base, end) on the
// session of every live follower replica and waits for the acks, then
// advances the committed watermark once enough replicas hold it. The
// enqueue is what buys the overlap: chunks for ALL partitions led to
// one follower coalesce into that session's next drain, so the fixed
// sync-ack cost is paid per drain, not per chunk. The bytes still ship
// exactly as appended locally; followers re-verify CRCs at their wire
// decode.
func (n *ClusterNode) replicateOut(trace uint64, ps *partState, base, end int64, frames []byte) error {
	acks, live := 1, 1
	var firstErr error
	items := make([]*replItem, 0, len(ps.reps)-1)
	sessions := make([]*replSess, 0, len(ps.reps)-1)
	for _, id := range ps.reps {
		p := n.peers[id]
		if p == n.self {
			continue
		}
		n.mu.Lock()
		dead, s := p.st.Dead, p.sess
		n.mu.Unlock()
		if dead {
			continue
		}
		live++
		it := &replItem{trace: trace, ps: ps, base: base, end: end, frames: frames, done: make(chan error, 1)}
		if !s.enqueue(it) {
			if firstErr == nil {
				firstErr = errReplSessionClosed
			}
			continue
		}
		items = append(items, it)
		sessions = append(sessions, s)
	}
	// Yield once between enqueue and drive: producers that arrived in
	// the same instant (the routing client fans partitions out
	// concurrently) get to append and enqueue before the first of them
	// claims the queue, so their chunks ship as ONE batch instead of
	// pipelined singletons. This is the group-commit formation point —
	// a scheduling hint, not a linger timer: an idle session still
	// ships immediately after one scheduler pass.
	if len(items) > 0 {
		runtime.Gosched()
	}
	// Drive the sessions we just fed: the last inline (for the common
	// RF2 single-follower case this is the whole push, and this goroutine
	// reads the follower's ack itself: zero handoffs), the rest
	// concurrently so multi-follower fan-out still overlaps.
	for i, s := range sessions {
		if i == len(sessions)-1 {
			n.driveSession(s)
		} else {
			go n.driveSession(s)
		}
	}
	for _, it := range items {
		if err := <-it.done; err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		acks++
	}
	need := n.cfg.MinISR
	if live < need {
		need = live
	}
	if acks < need {
		return fmt.Errorf("%w: %d/%d acked: %v", errUnderReplicated, acks, need, firstErr)
	}
	for {
		cur := ps.committed.Load()
		if end <= cur || ps.committed.CompareAndSwap(cur, end) {
			break
		}
	}
	return nil
}

// noteFollowerHWM records the watermark a follower acked on its last
// replicate — the source of the per-follower replication-lag gauges.
func (n *ClusterNode) noteFollowerHWM(ps *partState, id string, hwm int64) {
	n.mu.Lock()
	if i := slices.Index(ps.reps, id); i >= 0 && hwm > ps.followHWM[i] {
		ps.followHWM[i] = hwm
	}
	n.mu.Unlock()
}

// ---- observability ----

// Ready reports whether the node can serve traffic: it must have
// finished (re)joining and every partition it currently leads must have
// at least MinISR live replicas — the ISR-aware readiness the admin
// /healthz endpoint exposes so load balancers drain a degraded leader.
func (n *ClusterNode) Ready() error {
	if n.isJoining() {
		return errors.New("joining: not yet synced and announced")
	}
	for _, ps := range n.parts() {
		if n.leaderFor(ps) != n.cfg.ID {
			continue
		}
		if live := n.liveReplicas(ps); live < n.cfg.MinISR {
			return fmt.Errorf("partition %s: %d/%d replicas live", ps, live, n.cfg.MinISR)
		}
	}
	return nil
}

// liveReplicas counts the partition's replicas alive in this node's
// view (counting this node itself).
func (n *ClusterNode) liveReplicas(ps *partState) int {
	n.mu.Lock()
	defer n.mu.Unlock()
	live := 0
	for _, id := range ps.reps {
		if !n.peers[id].st.Dead {
			live++
		}
	}
	return live
}

// RegisterMetrics publishes the node's membership and per-partition
// gauges on reg, recomputed at scrape time: peer liveness and
// incarnations, leadership epoch, joining state, committed watermarks,
// ISR sizes, leadership flags, and — on partitions this node leads —
// per-follower replication lag in records.
func (n *ClusterNode) RegisterMetrics(reg *metrics.Registry) {
	n.reg.Store(reg)
	reg.OnScrape(func() { n.scrapeInto(reg) })
}

func (n *ClusterNode) scrapeInto(reg *metrics.Registry) {
	n.mu.Lock()
	epoch := n.epoch
	joining := n.joining
	dead := make([]bool, len(n.members))
	for i, id := range n.members {
		dead[i] = n.peers[id].st.Dead
	}
	n.mu.Unlock()

	reg.Gauge("broker_cluster_epoch", "cluster leadership epoch in this node's view", nil).Set(float64(epoch))
	joinG := 0.0
	if joining {
		joinG = 1
	}
	reg.Gauge("broker_joining", "1 while this node is (re)joining and refusing leadership", nil).Set(joinG)
	for i, id := range n.members {
		alive := 1.0
		if dead[i] {
			alive = 0
		}
		reg.Gauge("broker_peer_alive", "1 when the peer is alive in this node's view", metrics.Labels{"peer": id}).Set(alive)
	}

	// Leadership moves between nodes, so stale lag series from a demoted
	// leader are cleared and the family rebuilt from live state.
	reg.RemoveSeries("broker_replication_lag_records", metrics.Labels{})
	for _, ps := range n.parts() {
		lbl := metrics.Labels{"topic": ps.topic, "partition": strconv.Itoa(ps.partition)}
		leads := 0.0
		isLeader := n.leaderFor(ps) == n.cfg.ID
		if isLeader {
			leads = 1
		}
		reg.Gauge("broker_partition_leader", "1 when this node leads the partition", lbl).Set(leads)
		reg.Gauge("broker_partition_isr_size", "live replicas of the partition (counting this node)", lbl).Set(float64(n.liveReplicas(ps)))
		n.mu.Lock()
		committed := n.knownCommittedLocked(ps)
		follow := slices.Clone(ps.followHWM)
		n.mu.Unlock()
		reg.Gauge("broker_partition_committed_offset", "committed (replicated + acked) watermark known here", lbl).Set(float64(committed))
		if !isLeader {
			continue
		}
		end := ps.p.log.HighWatermark()
		for i, hwm := range follow {
			if hwm == 0 {
				continue // that follower never acked
			}
			fl := metrics.Labels{"topic": ps.topic, "partition": strconv.Itoa(ps.partition), "follower": ps.reps[i]}
			reg.Gauge("broker_replication_lag_records", "records the follower trails this leader's log end by", fl).Set(float64(max(end-hwm, 0)))
		}
	}
}

// fetchFrames serves a consumer read: leaders only, and only up to the
// committed watermark, so no consumer can observe records a failover
// might lose. The payload is appended onto buf straight from the log's
// segment chunks — no record is materialized.
func (n *ClusterNode) fetchFrames(topic string, partition int, offset int64, max int, buf []byte) ([]byte, int, error) {
	ps, err := n.leaderState(topic, partition)
	if err != nil {
		return buf, 0, err
	}
	return ps.readCommitted(ps.committed.Load(), offset, max, buf)
}

// readCommitted appends up to max records from offset onto buf, never
// reading at or past committed.
func (ps *partState) readCommitted(committed, offset int64, max int, buf []byte) ([]byte, int, error) {
	if offset >= committed {
		if offset < 0 {
			return buf, 0, ErrOffsetOutOfRange
		}
		return buf, 0, nil
	}
	if max <= 0 {
		max = 1024
	}
	if int64(max) > committed-offset {
		max = int(committed - offset)
	}
	return ps.p.log.ReadFrames(offset, max, buf)
}

// hwm serves the consumer-visible high watermark: the committed offset.
func (n *ClusterNode) hwm(topic string, partition int) (int64, error) {
	ps, err := n.leaderState(topic, partition)
	if err != nil {
		return 0, err
	}
	return ps.committed.Load(), nil
}

// leaderState checks this node leads the partition and returns its
// record with leadership adopted.
func (n *ClusterNode) leaderState(topic string, partition int) (*partState, error) {
	ps, err := n.part(topic, partition)
	if err != nil {
		return nil, err
	}
	switch ldr := n.leaderFor(ps); ldr {
	case n.cfg.ID:
	case "":
		return nil, errNoReplica
	default:
		return nil, notLeaderError(ldr)
	}
	ps.lead()
	return ps, nil
}

// knownCommittedLocked returns the highest committed watermark this
// node knows for a partition — its own leader watermark or the last
// value a leader shipped to it (n.mu held).
func (n *ClusterNode) knownCommittedLocked(ps *partState) int64 {
	return max(ps.remoteHWM, ps.committed.Load())
}

// replicaCommitted is the committed watermark this node vouches for to
// a catching-up peer. When this node currently LEADS the partition,
// that is its (promotion-adopted) leader watermark — a freshly
// promoted interim leader must answer with everything it holds, not
// the lagging value the dead leader last shipped it. Otherwise it is
// the best locally-known committed value.
func (n *ClusterNode) replicaCommitted(ps *partState) int64 {
	if n.leaderFor(ps) == n.cfg.ID {
		ps.lead()
		return ps.committed.Load()
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.knownCommittedLocked(ps)
}

// replicaFetchFrames serves committed records to a fellow cluster
// member regardless of leadership — the pull side of rejoin catch-up and
// of the leadership-takeover handshake, where the interim leader has
// already deferred and would answer a normal fetch with NotLeader. The
// bytes ship verbatim from the serving replica's segments, CRC-checked
// by the puller at its wire decode before they are re-appended.
func (n *ClusterNode) replicaFetchFrames(sender, topic string, partition int, offset int64, max int, buf []byte) ([]byte, int, error) {
	if n.peers[sender] == nil {
		return buf, 0, fmt.Errorf("broker: replica fetch from non-member %q", sender)
	}
	ps, err := n.part(topic, partition)
	if err != nil {
		return buf, 0, err
	}
	return ps.readCommitted(n.replicaCommitted(ps), offset, max, buf)
}

// replicaHWM answers a member's query for this node's committed
// watermark of a partition, leadership-independent.
func (n *ClusterNode) replicaHWM(sender, topic string, partition int) (int64, error) {
	if n.peers[sender] == nil {
		return 0, fmt.Errorf("broker: replica hwm from non-member %q", sender)
	}
	ps, err := n.part(topic, partition)
	if err != nil {
		return 0, err
	}
	return n.replicaCommitted(ps), nil
}

// fenceReplicate runs the follower-side admission checks of a replicate
// batch whose sender is a member and a replica of every section: a
// (re)joining node and a deposed sender refuse replication, and every
// partition records the highest epoch an inbound replicate has carried
// — a chunk at a LOWER epoch than that is fenced off, so a stale
// session that went quiet before a takeover cannot deliver a late batch
// after the new leader (whose announcement bumped the epoch) has started
// shipping. All rejections are answered errors: the deposed leader
// learns it is fenced without poisoning its failure detector.
func (n *ClusterNode) fenceReplicate(epoch int64, from *peer, parts []*partState) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.joining {
		return fmt.Errorf("broker: %s is rejoining; replication refused until synced", n.cfg.ID)
	}
	if from.st.Dead {
		return fmt.Errorf("broker: replicate from %s rejected: deposed in epoch %d", from.id, n.epoch)
	}
	for _, ps := range parts {
		if epoch < ps.replEpoch {
			return fmt.Errorf("broker: replicate %s from %s fenced: epoch %d < %d", ps, from.id, epoch, ps.replEpoch)
		}
	}
	// Admitted: record the epochs only now, so one stale section cannot
	// ratchet its siblings before the whole batch is judged.
	for _, ps := range parts {
		ps.replEpoch = max(ps.replEpoch, epoch)
	}
	n.epoch = max(n.epoch, epoch)
	return nil
}

// applyReplicateBatch is the follower side of replication. The sender
// must be a member and a replica of every section's partition, checked
// before anything is recorded; then one fence decision covers the whole
// batch, and every section lands in its log through the idempotent
// gap-safe append, in batch order (sections of one partition arrive
// contiguous, so later ones see the watermark earlier ones produced).
// The answer is one high watermark per section; a failing section
// fails the whole batch (the leader re-drives per item).
func (n *ClusterNode) applyReplicateBatch(epoch int64, sender string, secs []replSection) ([]int64, error) {
	if len(secs) == 0 {
		return nil, errors.New("broker: empty replicate batch")
	}
	from := n.peers[sender]
	if from == nil {
		return nil, fmt.Errorf("broker: replicate from non-member %q", sender)
	}
	parts := make([]*partState, len(secs))
	for i := range secs {
		ps, err := n.part(secs[i].topic, secs[i].partition)
		if err != nil {
			return nil, err
		}
		if !slices.Contains(ps.reps, sender) {
			return nil, fmt.Errorf("broker: %s is not a replica of %s", sender, ps)
		}
		parts[i] = ps
	}
	if err := n.fenceReplicate(epoch, from, parts); err != nil {
		return nil, err
	}
	n.markAlive(from)
	// Replication from a live peer proves we lead none of these
	// partitions: a later RE-promotion must re-adopt the watermark.
	for _, ps := range parts {
		ps.leading.Store(false)
	}
	hwms := make([]int64, len(secs))
	for i, ps := range parts {
		s := &secs[i]
		hwm, err := ps.p.replicateAppend(s.base, s.frames, s.count)
		if err != nil {
			return nil, err
		}
		hwms[i] = hwm
		// Adopt dedup state only for batches the local log now fully
		// holds: a gap-skipped chunk (hwm < base) must not leave seq
		// entries for records that are not here, or a promoted follower
		// would answer a producer retry as a duplicate without having
		// the data.
		for _, bm := range s.metas {
			if bm.end <= hwm {
				n.noteBatch(ps, bm)
			}
		}
		// Track the leader's committed watermark, clamped to what we
		// hold: it is this replica's restart truncation point.
		committed := min(s.committed, hwm)
		n.mu.Lock()
		advanced := committed > ps.remoteHWM
		if advanced {
			ps.remoteHWM = committed
		}
		n.mu.Unlock()
		if advanced || s.count > 0 {
			n.noteStateDirty(ps)
		}
	}
	return hwms, nil
}

// ---- persisted cluster state ----

// noteStateDirty schedules a partition's cluster state for the next
// write-behind flush: the hot data path (produce acks, replicated
// appends) marks instead of rewriting state.json per batch, so a burst
// of watermark advances coalesces into one write per stateFlushEvery.
// Under the SyncAlways policy the write happens inline — there the acked
// batch must be recoverable, which requires the committed watermark on
// disk before the ack returns. Control-plane transitions (rejoin
// truncation, takeover completion) keep calling saveClusterState
// directly: they are rare and their persisted state gates correctness
// of the next restart.
func (n *ClusterNode) noteStateDirty(ps *partState) {
	if n.b.Dir() == "" {
		return
	}
	if n.b.syncAlways() {
		n.saveClusterState(ps)
		return
	}
	ps.dirty.Store(true)
}

// flushDirtyState writes every partition state marked since the last
// flush.
func (n *ClusterNode) flushDirtyState() {
	if n.b.Dir() == "" {
		return
	}
	for _, ps := range n.parts() {
		if ps.dirty.Swap(false) {
			n.saveClusterState(ps)
		}
	}
}

// stateFlushLoop writes the dirty partitions every stateFlushEvery, and once
// more on shutdown so a clean Close loses no watermark advance.
func (n *ClusterNode) stateFlushLoop() {
	defer n.wg.Done()
	t := time.NewTicker(stateFlushEvery)
	defer t.Stop()
	for {
		select {
		case <-n.done:
			n.flushDirtyState()
			return
		case <-t.C:
			n.flushDirtyState()
		}
	}
}

// saveClusterState persists one partition's cluster state (committed
// watermark, producer dedup table + journal) next to its segments.
// No-op on an in-memory broker. Saves of one partition are serialized
// and always snapshot the freshest state, so a slow older write cannot
// clobber a newer one.
func (n *ClusterNode) saveClusterState(ps *partState) {
	if n.b.Dir() == "" {
		return
	}
	ps.saveMu.Lock()
	defer ps.saveMu.Unlock()
	n.mu.Lock()
	st := partitionState{Committed: n.knownCommittedLocked(ps)}
	for pid, last := range ps.seqs {
		st.Producers = append(st.Producers, producerEntry{PID: pid, Seq: last.seq, Base: last.base, End: last.end})
	}
	for _, bm := range ps.metas {
		st.Journal = append(st.Journal, producerEntry{PID: bm.pid, Seq: bm.seq, Base: bm.base, End: bm.end})
	}
	n.mu.Unlock()
	sort.Slice(st.Producers, func(i, j int) bool { return st.Producers[i].PID < st.Producers[j].PID })
	if err := storage.SaveJSON(n.statePath(ps), &st, n.b.syncAlways()); err != nil {
		n.cfg.Log.Error("save state failed", "partition", ps.String(), "err", err)
	}
}
