package broker

// Locks: n.mu guards replEpoch, remoteHWM, seqs and metas; leading is an atomic.
import (
	"fmt"
	"slices"
)

// replicaFetch answers a fellow cluster member's replica fetch with one
// section of committed records, regardless of leadership — the pull side
// of rejoin catch-up and of the leadership-takeover handshake, where the
// interim leader has already deferred and would answer a normal fetch
// with NotLeader. The frames ship verbatim from the serving replica's
// segments, behind the journal entries overlapping them, and are
// CRC-checked by the puller at its wire decode before they are
// re-appended.
func (n *ClusterNode) replicaFetch(out *frameBuf, corr uint64, sender, topic string, partition int, offset int64, max int) error {
	ps, committed, err := n.replicaRead(sender, topic, partition)
	if err != nil {
		return err
	}
	end := committed
	if max > 0 {
		end = min(end, offset+int64(max))
	}
	at := beginSectionResp(out, corr, offset, committed, n.metasInRange(nil, ps, offset, end))
	var count int
	if out.b, count, err = ps.readCommitted(committed, offset, max, out.b); err == nil {
		patchFrameCount(out, at, count)
	}
	return err
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
// whose sender is a member and a replica of the partition: a (re)joining
// node and a deposed sender refuse replication, and the partition
// records the highest epoch an inbound replicate has carried — a chunk
// at a LOWER epoch than that is fenced off, so a replicate a deposed
// leader sent before a takeover cannot land after the new leader (whose
// announcement bumped the epoch) has started shipping. All rejections
// are answered errors: the deposed leader learns it is fenced without
// poisoning its failure detector.
func (n *ClusterNode) fenceReplicate(epoch int64, from *peer, ps *partState) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.joining {
		return fmt.Errorf("broker: %s is rejoining; replication refused until synced", n.cfg.ID)
	}
	if from.st.Dead {
		return fmt.Errorf("broker: replicate from %s rejected: deposed in epoch %d", from.id, n.epoch)
	}
	if epoch < ps.replEpoch {
		return fmt.Errorf("broker: replicate %s from %s fenced: epoch %d < %d", ps, from.id, epoch, ps.replEpoch)
	}
	ps.replEpoch = epoch
	n.epoch = max(n.epoch, epoch)
	return nil
}

// applyReplicate is the follower side of a replicate. The sender must be
// a member and a replica of the partition, checked before anything is
// recorded, and must pass the epoch fence; then the section lands
// through applySection. The answer is the follower's high watermark:
// one short of the section's end tells the leader to backfill.
func (n *ClusterNode) applyReplicate(epoch int64, sender, topic string, partition int, s replSection) (int64, error) {
	from := n.peers[sender]
	if from == nil {
		return 0, fmt.Errorf("broker: replicate from non-member %q", sender)
	}
	ps, err := n.part(topic, partition)
	if err != nil {
		return 0, err
	}
	if !slices.Contains(ps.reps, sender) {
		return 0, fmt.Errorf("broker: %s is not a replica of %s", sender, ps)
	}
	if err := n.fenceReplicate(epoch, from, ps); err != nil {
		return 0, err
	}
	n.markAlive(from)
	// Replication from a live peer proves we do not lead the partition:
	// a later RE-promotion must re-adopt the watermark.
	ps.leading.Store(false)
	return n.applySection(ps, s)
}

// applySection lands one section in a replica's log, whether the leader
// pushed it or this replica pulled it: the frames through the idempotent
// gap-safe append, the journal entries the log now fully holds, and the
// sender's committed watermark clamped to what is here. It returns the
// local high watermark.
func (n *ClusterNode) applySection(ps *partState, s replSection) (int64, error) {
	hwm, err := ps.p.replicateAppend(s.base, s.frames, s.count)
	if err != nil {
		return 0, err
	}
	// Adopt dedup state only for batches the local log now fully holds: a
	// gap-skipped chunk (hwm < base) must not leave seq entries for
	// records that are not here, or a promoted follower would answer a
	// producer retry as a duplicate without having the data.
	for _, bm := range s.metas {
		if bm.end <= hwm {
			n.noteBatch(ps, bm)
		}
	}
	// The committed watermark, clamped to what we hold, is this replica's
	// restart truncation point.
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
	return hwm, nil
}
