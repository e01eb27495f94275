package broker

// Locks: replSess.mu, a leaf, guards a session; n.mu guards peer.sess and followHWM.
import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"streamapprox/internal/metrics"
)

// replWindow bounds the chunks one follower-session drain coalesces
// into a single multi-partition replicate RPC. The session queue
// itself is unbounded — its natural bound is the number of produce
// handlers parked on their acks.
const replWindow = 32

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
			if tail := last.items[len(last.items)-1]; tail.ps == it.ps && tail.end == it.base {
				last.items = append(last.items, it)
				last.sec.count = int(it.end - last.sec.base)
				continue
			}
		}
		secs = append(secs, &sendSection{ps: it.ps, trace: it.trace, items: []*replItem{it}, sec: replSection{
			topic: it.ps.topic, partition: it.ps.partition, base: it.base, count: int(it.end - it.base), frames: it.frames}})
	}
	for _, sec := range secs {
		if len(sec.items) == 1 {
			continue
		}
		size := 0
		for _, it := range sec.items {
			size += len(it.frames)
		}
		sec.sec.frames = make([]byte, 0, size)
		for _, it := range sec.items {
			sec.sec.frames = append(sec.sec.frames, it.frames...)
		}
	}
	return secs
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
