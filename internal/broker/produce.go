package broker

// Locks: partState.mu serializes dedup check + append + journal and lead, before n.mu.
import (
	"fmt"
	"iter"
	"slices"
)

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

// metaJournal is a partition's batch journal: its newest metaJournalCap
// batches, kept in a ring once full, so a batch costs O(1) to note.
type metaJournal struct {
	buf   []batchMeta
	start int // the oldest entry's index; 0 until buf is full
}

// add notes bm, evicting the oldest entry once the journal is full.
func (j *metaJournal) add(bm batchMeta) {
	if len(j.buf) < metaJournalCap {
		j.buf = append(j.buf, bm)
		return
	}
	j.buf[j.start] = bm
	j.start = (j.start + 1) % metaJournalCap
}

// all yields the entries oldest first.
func (j *metaJournal) all() iter.Seq[batchMeta] {
	return func(yield func(batchMeta) bool) {
		for _, part := range [2][]batchMeta{j.buf[j.start:], j.buf[:j.start]} {
			for _, bm := range part {
				if !yield(bm) {
					return
				}
			}
		}
	}
}

// drop deletes the entries del reports, keeping the others' order.
func (j *metaJournal) drop(del func(batchMeta) bool) {
	j.buf, j.start = slices.DeleteFunc(slices.Collect(j.all()), del), 0
}

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

func (n *ClusterNode) lastSeq(ps *partState, pid uint64) (batchMeta, bool) {
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
		ps.seqs[bm.pid] = bm
	}
	ps.metas.add(bm)
}

// metasInRange appends to dst the journal entries overlapping
// [from, to) — the dedup state shipped with a replicated chunk of that
// range.
func (n *ClusterNode) metasInRange(dst []batchMeta, ps *partState, from, to int64) []batchMeta {
	n.mu.Lock()
	defer n.mu.Unlock()
	for bm := range ps.metas.all() {
		if bm.end > from && bm.base < to {
			dst = append(dst, bm)
		}
	}
	return dst
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
