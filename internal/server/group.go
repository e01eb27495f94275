package server

import (
	"slices"

	"streamapprox/internal/pane"
	"streamapprox/internal/query"
	"streamapprox/internal/sampling"
	"streamapprox/internal/stream"
)

// A sampling group owns one pane sampler, under the group lock, and every
// member's panes come from it: a shard is in exactly one group from the
// time its job is built. The lock order is plane → group → shard → job:
// the partition loop, the sweep, attach and detach hold the group lock and
// take one member's shard lock at a time, and a checkpoint takes its
// shard's group lock before the shard's. Only a fold holds two group
// locks, and it does so under the plane lock. No path holds two shards'
// locks at once.

// alone puts sh in a sampling group of its own, sampling with ps from the
// shard's offset. Callers hold the lock of the group sh leaves, if any.
func (sh *shard) alone(ps *pane.Sampler) {
	sh.group.Store(&subQueue{key: sh.job.groupKey(), members: []*shard{sh}, ps: ps, offset: sh.offset})
}

// lockSampler locks sh's group, whose lock guards the sampler sh's panes
// come from, and then sh; it returns the unlock. The group read before
// its lock is held may have changed by then — a fold or a detach moved
// sh — and the attempt then starts over.
func (sh *shard) lockSampler() (unlock func()) {
	for {
		sub := sh.group.Load()
		sub.mu.Lock()
		if sh.group.Load() == sub {
			sh.mu.Lock()
			return func() { sh.mu.Unlock(); sub.mu.Unlock() }
		}
		sub.mu.Unlock()
	}
}

// absorb folds sub into into, an older group of its key, when their
// samplers stand at one point of the stream: the offset they have reached
// and a sampler at the same point (pane.Sampler.SamePoint). sub's members
// then sample through into's sampler, each keeping the late drops sub's
// made beyond into's, and sub is left without members. It reports whether
// sub folded. Callers hold the plane lock.
func (into *subQueue) absorb(sub *subQueue) bool {
	into.mu.Lock()
	defer into.mu.Unlock()
	sub.mu.Lock()
	defer sub.mu.Unlock()
	if sub.offset != into.offset || !sub.ps.SamePoint(into.ps) {
		return false
	}
	late := sub.ps.Late() - into.ps.Late()
	for _, sh := range sub.members {
		sh.mu.Lock()
		sh.lateOff += late
		sh.group.Store(into)
		sh.mu.Unlock()
	}
	into.members = append(into.members, sub.members...)
	sub.members = nil
	return true
}

// cut files a segment the group's sampler finished as a pane of every
// member, summarised once per distinct shape among their queries
// (query.SummarizesAlike): a member whose query summarises the sample as
// an earlier member's does gets that summary, shared read-only — nothing
// writes into a Summary after Summarize, and the merger only combines
// them.
func (sub *subQueue) cut(start int64, s *sampling.Sample, _ int64) {
	if s == nil {
		return
	}
	at := stream.TimeFromNanos(start)
	for _, sh := range sub.members {
		var sum query.Summary
		if k := slices.IndexFunc(sub.summed, func(o *shard) bool { return query.SummarizesAlike(o.q, sh.q, s) }); k >= 0 {
			o := sub.summed[k]
			sum = o.panes[len(o.panes)-1].Summary
		} else {
			sum = sh.q.Summarize(s)
		}
		sh.panes = append(sh.panes, query.Pane{Start: at, Summary: sum})
		sub.summed = append(sub.summed, sh)
	}
	clear(sub.summed)
	sub.summed = sub.summed[:0]
}

// apply applies one delivery to the group: its sampler takes it once, and
// each member hands the panes it filed and its watermark to its merger.
// Every member stands at the group's offset, so the first one's skip is
// the group's. A member that joined past a marker's position skips the
// marker, and a group that ended after the loop took it skips the
// delivery.
func (sub *subQueue) apply(d planeDelivery) {
	sub.mu.Lock()
	defer sub.mu.Unlock()
	if len(sub.members) == 0 {
		return
	}
	for i, sh := range sub.members {
		sh.mu.Lock()
		switch {
		case d.batch != nil:
			if from := sh.skipFrom(d.batch); i == 0 && from < d.batch.Len() {
				sub.ps.Push(d.batch, from, d.batch.Len(), sub.cut)
			}
			sh.consumeLocked(d.batch, d.next, sub.ps)
		case sh.skipUntil <= d.next:
			if i == 0 {
				sub.ps.Advance(d.mark, sub.cut)
			}
			sh.wm = stream.TimeFromNanos(sub.ps.Watermark())
			sh.deliver(sh.wm)
		}
		if d.haveHWM {
			sh.setLag(d.hwm - sh.offset)
		}
		if i == 0 {
			sub.offset = sh.offset
		}
		sh.mu.Unlock()
	}
}
