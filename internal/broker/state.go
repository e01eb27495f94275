package broker

// Locks: partState.saveMu serializes state.json writes, before n.mu; dirty is an atomic.
import (
	"errors"
	"fmt"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"time"

	"streamapprox/internal/broker/storage"
	"streamapprox/internal/metrics"
)

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

// stateFlushEvery is the write-behind interval for the hot-path
// state.json rewrites (committed watermark + producer dedup table):
// produce and replicated-append mark the partition dirty and a
// background loop coalesces the rewrites. Control-plane transitions
// (rejoin truncation, takeover) still write synchronously, and under
// the SyncAlways policy every state write is synchronous — the
// acked-means-durable guarantee needs the watermark on disk before
// the ack.
const stateFlushEvery = 25 * time.Millisecond

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
				ps.seqs[pe.PID] = batchMeta{pid: pe.PID, seq: pe.Seq, base: pe.Base, end: pe.End}
			}
		}
		for _, pe := range st.Journal {
			if pe.End <= st.Committed {
				ps.metas.add(batchMeta{pid: pe.PID, seq: pe.Seq, base: pe.Base, end: pe.End})
			}
		}
		n.cfg.Log.Info("recovered partition", "partition", ps.String(), "committed", st.Committed)
	}
	return nil
}

func (n *ClusterNode) statePath(ps *partState) string {
	return filepath.Join(n.b.partitionDir(ps.topic, ps.partition), "state.json")
}

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
	n.stateDirty.Store(true)
}

// flushDirtyState writes every partition state marked since the last
// flush. The node's flag is cleared before the partitions' are read, so a
// partition marked during the walk is written now or by the next flush.
func (n *ClusterNode) flushDirtyState() {
	if n.b.Dir() == "" || !n.stateDirty.Swap(false) {
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
	for bm := range ps.metas.all() {
		st.Journal = append(st.Journal, producerEntry{PID: bm.pid, Seq: bm.seq, Base: bm.base, End: bm.end})
	}
	n.mu.Unlock()
	sort.Slice(st.Producers, func(i, j int) bool { return st.Producers[i].PID < st.Producers[j].PID })
	if err := storage.SaveJSON(n.statePath(ps), &st, n.b.syncAlways()); err != nil {
		n.cfg.Log.Error("save state failed", "partition", ps.String(), "err", err)
	}
}

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
