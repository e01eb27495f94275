package broker

// Locks: n.mu guards each peer but its id and addr, and is never held across an RPC.
import (
	"encoding/binary"
	"slices"
	"time"
)

// peerStatus is one member's liveness in a node's view: Dead plus the
// status version (incarnation) of the observation. Higher versions win
// on merge; only a member itself announces its own resurrection.
type peerStatus struct {
	Dead bool
	Ver  int64
}

// startupGrace is how long failures against a peer that was NEVER
// seen alive are forgiven — cluster members boot at different times.
const startupGrace = 10 * time.Second

// deadProbeEvery is how many heartbeat ticks pass between probes of a
// peer marked dead — the channel through which mutually-partitioned
// halves exchange views again once the network heals.
const deadProbeEvery = 8

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

// probe heartbeats one peer, exchanging gossip: the request carries our
// epoch + status view, the response the peer's, and both sides merge.
func (n *ClusterNode) probe(p *peer) {
	cli, err := n.peerClient(p)
	if err != nil {
		n.markFailure(p, err)
		return
	}
	err = cli.ping(n.cfg.ProbeTimeout, n.cfg.ID, n.appendGossip, func(g gossip) {
		n.adoptPendingAlive(p)
		n.markAlive(p)
		n.mergeView(g)
	})
	if err != nil {
		// Ping IS the liveness probe, so any failure counts — but only a
		// transport failure taints the connection.
		if !isRemoteErr(err) {
			n.dropConn(p, cli)
		}
		n.markFailure(p, err)
	}
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

// appendGossip appends the current epoch and the status view: every
// member with a status other than (alive, version 0), in member order,
// and always this node's own entry (its self-announcement).
func (n *ClusterNode) appendGossip(b []byte) []byte {
	n.mu.Lock()
	defer n.mu.Unlock()
	b = appendU64(b, uint64(n.epoch))
	at, k := len(b), 0
	b = appendU16(b, 0)
	for _, id := range n.members {
		if p := n.peers[id]; p.st != (peerStatus{}) || p == n.self {
			b = appendViewEntry(b, id, p.st)
			k++
		}
	}
	binary.BigEndian.PutUint16(b[at:], uint16(k))
	return b
}

// mergeView folds a peer's gossip into ours: per-member entries with a
// higher status version win; epochs take the max; ids that are not
// members are ignored. One exception: a
// dead→alive transition is never adopted on hearsay — it parks in
// pendAlive until our own probe of that peer succeeds. A node never
// adopts "dead" for ITSELF — instead, learning that the cluster deposed it
// demotes it back to joining, so it resyncs its log and re-announces
// with a version above the accusation.
func (n *ClusterNode) mergeView(g gossip) {
	n.mu.Lock()
	demoted := false
	var verify []*peer
	for i, off := 0, 0; i < g.n; i++ {
		var id []byte
		var st peerStatus
		id, st, off = g.entry(off)
		p := n.peers[string(id)]
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
					n.cfg.Log.Info("peer dead by gossip", "peer", p.id, "ver", st.Ver)
					n.closeConnLocked(p)
				}
			}
		}
	}
	if g.epoch > n.epoch {
		n.epoch = g.epoch
	}
	n.mu.Unlock()
	for _, p := range verify {
		n.probeDeadAsync(p)
	}
	if demoted {
		// Leadership is gone. A replicate still in flight from the old
		// reign is fenced by the follower: it names a deposed sender, or
		// carries an epoch below the partition's replication fence.
		n.cfg.Log.Warn("deposed by the cluster; demoting to rejoin")
		select {
		case n.rejoinWake <- struct{}{}:
		default:
		}
	}
}

// handlePing serves the "ping" control op: merge the sender's gossip,
// append ours to b as the answer. An inbound ping proves the sender has booted and
// can reach US — it does NOT prove we can reach the sender, so it must
// not reset the probe-failure counter: under an asymmetric partition
// (the peer's inbound traffic blackholed, its outbound fine) its pings
// keep arriving while our probes of it all time out, and resetting the
// counter here would mask the partition forever. Liveness is earned
// only by answering OUR probes; resurrection of a dead peer flows
// through mergeView's version bumps.
func (n *ClusterNode) handlePing(sender string, g gossip, b []byte) []byte {
	n.mergeView(g)
	if p := n.peers[sender]; p != nil {
		n.markSeen(p)
	}
	return n.appendGossip(b)
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

// dropConn discards a broken peer connection, reporting whether it was
// still the current one (false: another call dropped it first).
func (n *ClusterNode) dropConn(p *peer, c *client) bool {
	n.mu.Lock()
	cur := p.conn == c
	if cur {
		p.conn = nil
	}
	n.mu.Unlock()
	_ = c.Close()
	return cur
}

// closeConnLocked closes and forgets a peer's connection (n.mu held).
func (n *ClusterNode) closeConnLocked(p *peer) {
	if p.conn != nil {
		_ = p.conn.Close()
		p.conn = nil
	}
}

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

// appendMeta appends the "meta" answer (codec.go): this node's epoch,
// the member table with each member's liveness, and every partition's
// leader and replicas as indexes into that table, written from node
// state under n.mu.
func (n *ClusterNode) appendMeta(b []byte) []byte {
	parts := n.parts()
	index := func(id string) uint16 { return uint16(slices.Index(n.members, id)) } // none: -1, which is noNode
	n.mu.Lock()
	defer n.mu.Unlock()
	b = appendU16(appendU64(b, uint64(n.epoch)), uint16(len(n.members)))
	for _, id := range n.members {
		p := n.peers[id]
		b = append(appendStr(appendStr(b, id), p.addr), boolByte(!p.st.Dead))
	}
	at, topics := len(b), 0
	b = appendU32(b, 0)
	for i, j := 0, 0; i < len(parts); i = j {
		for j = i; j < len(parts) && parts[j].topic == parts[i].topic; j++ {
		}
		b = appendU16(appendStr(b, parts[i].topic), uint16(j-i))
		for _, ps := range parts[i:j] {
			b = appendU16(appendU16(b, index(n.leaderLocked(ps, n.joining))), uint16(len(ps.reps)))
			for _, id := range ps.reps {
				b = appendU16(b, index(id))
			}
		}
		topics++
	}
	binary.BigEndian.PutUint32(b[at:], uint32(topics))
	return b
}
