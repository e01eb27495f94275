package broker

// Locks: n.mu guards replEpoch, remoteHWM, seqs and metas; leading is an atomic.
import (
	"errors"
	"fmt"
	"slices"
)

// replicaFetchFrames serves committed records to a fellow cluster
// member regardless of leadership — the pull side of rejoin catch-up and
// of the leadership-takeover handshake, where the interim leader has
// already deferred and would answer a normal fetch with NotLeader. The
// bytes ship verbatim from the serving replica's segments, CRC-checked
// by the puller at its wire decode before they are re-appended.
func (n *ClusterNode) replicaFetchFrames(sender, topic string, partition int, offset int64, max int, buf []byte) ([]byte, int, error) {
	ps, committed, err := n.replicaRead(sender, topic, partition)
	if err != nil {
		return buf, 0, err
	}
	return ps.readCommitted(committed, offset, max, buf)
}

// replicaHWM answers a member's query for this node's committed
// watermark of a partition, leadership-independent.
func (n *ClusterNode) replicaHWM(sender, topic string, partition int) (int64, error) {
	_, committed, err := n.replicaRead(sender, topic, partition)
	return committed, err
}

// replicaRead checks that a replica read's sender is a member and returns
// the partition's record and the committed watermark it may read to.
func (n *ClusterNode) replicaRead(sender, topic string, partition int) (*partState, int64, error) {
	if n.peers[sender] == nil {
		return nil, 0, fmt.Errorf("broker: replica read from non-member %q", sender)
	}
	ps, err := n.part(topic, partition)
	if err != nil {
		return nil, 0, err
	}
	return ps, n.replicaCommitted(ps), nil
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
