package broker

// Locks: n.mu guards remoteHWM, seqs, metas and syncing; committed and leading are atomics.
import (
	"slices"
	"time"
)

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
	// next acquired.
	for _, ps := range n.parts() {
		ps.leading.Store(false)
	}
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
		if err := cli.ping(n.cfg.ProbeTimeout, n.cfg.ID, n.appendGossip, n.mergeView); err != nil {
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
			cli, err := n.peerClient(ldr)
			var committed int64
			if err == nil { // the replica surface answers whether or not ldr leads
				committed, err = cli.replicaHWM(n.cfg.ID, ps.topic, ps.partition)
			}
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
			if n.leaderLocked(ps, false) == n.cfg.ID {
				ps.syncing = true
				takeovers = append(takeovers, takeover{ps: ps, oldLeader: ldr})
			}
			n.mu.Unlock()
		}
	}
	return takeovers
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
	ps.metas.drop(func(bm batchMeta) bool { return bm.end > committed })
	n.mu.Unlock()
	n.saveClusterState(ps)
	n.cfg.Log.Info("rejoin: truncated divergence", "partition", ps.String(), "from", local,
		"leader", ldr, "committed", committed)
}

// pullCommitted drains the committed records this replica is missing
// from a peer, one replica-fetch section at a time, each applied by
// applySection exactly as a pushed one: the frames appended verbatim,
// the producer journal entries they complete adopted, so a retried
// batch is deduplicated here whichever path brought its records.
func (n *ClusterNode) pullCommitted(ldr *peer, ps *partState) error {
	cli, err := n.peerClient(ldr)
	if err != nil {
		return err
	}
	for {
		var count int
		err := cli.replicaFetch(n.cfg.ID, ps.topic, ps.partition, ps.p.log.HighWatermark(), 4096, func(s replSection) error {
			count = s.count
			_, err := n.applySection(ps, s)
			return err
		})
		if err != nil {
			return err
		}
		if count == 0 {
			n.saveClusterState(ps)
			return nil
		}
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
