package broker

// Locks: n.mu guards followHWM and each peer; peer.repl is an atomic.
import (
	"fmt"
	"slices"
	"sync"

	"streamapprox/internal/metrics"
)

// replInstruments is one follower's replication series.
type replInstruments struct {
	partitions, bytes *metrics.Histogram
	wakeups, batches  *metrics.Counter
}

// replScratch is replicateOut's scratch, pooled: the followers, their
// outcomes and the journal entries shipped.
type replScratch struct {
	to    []*peer
	errs  []error
	metas []batchMeta
	wg    sync.WaitGroup
}

var replScratches = sync.Pool{New: func() any { return new(replScratch) }}

// replicateOut sends the frame chunk covering [base, end) to every live
// follower replica, each in its own replicate RPC, and waits for the
// acks, then advances the committed watermark once enough replicas hold
// it. The last follower is sent inline — for the common RF2 case this is
// the whole push, and this goroutine reads the follower's ack itself —
// and the others concurrently, so a multi-follower fan-out overlaps. The
// bytes ship exactly as appended locally, and are done with once this
// returns; followers re-verify CRCs at their wire decode.
func (n *ClusterNode) replicateOut(trace uint64, ps *partState, base, end int64, frames []byte) error {
	rs := replScratches.Get().(*replScratch)
	defer func() {
		clear(rs.to)
		clear(rs.errs)
		rs.to, rs.errs = rs.to[:0], rs.errs[:0]
		replScratches.Put(rs)
	}()
	n.mu.Lock()
	epoch := n.epoch
	for _, id := range ps.reps {
		if p := n.peers[id]; p != n.self && !p.st.Dead {
			rs.to = append(rs.to, p)
		}
	}
	n.mu.Unlock()
	rs.metas = n.metasInRange(rs.metas[:0], ps, base, end)
	s := replSection{base: base, count: int(end - base), committed: ps.committed.Load(),
		metas: rs.metas, frames: frames}
	rs.errs = append(rs.errs, make([]error, len(rs.to))...)
	for i, p := range rs.to {
		if i == len(rs.to)-1 {
			rs.errs[i] = n.replicateTo(trace, epoch, p, ps, s)
			break
		}
		rs.wg.Add(1)
		go func() {
			defer rs.wg.Done()
			rs.errs[i] = n.replicateTo(trace, epoch, p, ps, s)
		}()
	}
	rs.wg.Wait()
	acks := 1
	var firstErr error
	for _, err := range rs.errs {
		if err == nil {
			acks++
		} else if firstErr == nil {
			firstErr = err
		}
	}
	if need := min(n.cfg.MinISR, 1+len(rs.to)); acks < need {
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

// replicateTo sends one section to one follower and repairs a short ack
// through convergeSection. A transport failure counts one miss per
// broken connection: only the call whose dropConn drops the peer's
// current connection feeds the failure detector, so concurrent
// replicates that time out together are one probe of the follower, and
// a single stall cannot burn through FailAfter on its own. An answered
// rejection (fencing, unknown topic, ...) proves the peer alive — a
// deposed leader must not "detect" the healthy majority as dead off its
// own fenced pushes.
func (n *ClusterNode) replicateTo(trace uint64, epoch int64, p *peer, ps *partState, s replSection) error {
	cli, err := n.peerClient(p)
	if err != nil {
		n.markFailure(p, err)
		return err
	}
	n.observeReplicate(p, len(s.frames))
	hwm, err := cli.replicate(trace, epoch, n.cfg.ID, ps.topic, ps.partition, &s)
	if err == nil {
		n.noteFollowerHWM(ps, p.id, hwm)
		if hwm < s.base+int64(s.count) {
			err = n.convergeSection(cli, trace, epoch, p.id, ps, s, hwm)
		}
	}
	switch {
	case err == nil || isRemoteErr(err):
		n.markAlive(p)
	case n.dropConn(p, cli): // the conn is suspect
		n.markFailure(p, err)
	}
	return err
}

// convergeSection repairs one short-acked section: the follower is
// behind the chunk's base (restart, missed round, or out-of-order
// arrival of concurrent produces), so it is backfilled from its own
// acked watermark hwm with replicates until it holds the section's end.
// The backfill bytes are read straight out of the local segment chunks,
// never decoded into records.
func (n *ClusterNode) convergeSection(cli *client, trace uint64, epoch int64, id string, ps *partState, s replSection, hwm int64) error {
	end := s.base + int64(s.count)
	for tries := 0; tries < 8; tries++ {
		fill, fn, err := ps.p.log.ReadFrames(hwm, int(end-hwm), nil)
		if err != nil {
			return err
		}
		if int64(fn) < end-hwm {
			return fmt.Errorf("broker: backfill short read at %d", hwm)
		}
		s = replSection{base: hwm, count: fn, committed: ps.committed.Load(),
			metas: n.metasInRange(nil, ps, hwm, end), frames: fill}
		if hwm, err = cli.replicate(trace, epoch, n.cfg.ID, ps.topic, ps.partition, &s); err != nil {
			return err
		}
		n.noteFollowerHWM(ps, id, hwm)
		if hwm >= end {
			return nil
		}
	}
	return fmt.Errorf("broker: replication to %s did not converge", id)
}

// observeReplicate records one replicated chunk on the follower's
// series: one partition and its frame bytes per replicate RPC, and the
// one producer its ack wakes. The handles are looked up in the registry
// once per follower (concurrent first sends resolve the same series, so
// either store wins harmlessly).
func (n *ClusterNode) observeReplicate(p *peer, bytes int) {
	in := p.repl.Load()
	if in == nil {
		reg := n.reg.Load()
		if reg == nil {
			return
		}
		lbl := metrics.Labels{"follower": p.id}
		in = &replInstruments{
			partitions: reg.Histogram("broker_replicate_batch_partitions", "partitions per replicate RPC (always 1)", lbl),
			bytes:      reg.Histogram("broker_replicate_batch_bytes", "frame payload bytes shipped in one replicate RPC", lbl),
			wakeups:    reg.Counter("broker_replicate_group_wakeups_total", "producers woken by replicate acks (one per RPC)", lbl),
			batches:    reg.Counter("broker_replicate_batches_total", "replicate RPCs sent, one per replicated chunk", lbl),
		}
		p.repl.Store(in)
	}
	in.partitions.Observe(1)
	in.bytes.Observe(float64(bytes))
	in.wakeups.Inc()
	in.batches.Inc()
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
