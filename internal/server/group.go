package server

import (
	"slices"
	"time"

	"streamapprox/internal/pane"
	"streamapprox/internal/query"
	"streamapprox/internal/sampling"
	"streamapprox/internal/stream"
)

// A sampling group owns one pane sampler and its position, and every
// member's panes come from it: a shard is in exactly one group from the
// time its job is built. The partition lock, partIngest.mu, is the one
// lock of everything on a partition: its groups, each group's sampler,
// position and members, and each member's group, panes and lateOff. The
// lock order is server → partition → job; no path holds two partitions'
// locks or two jobs' at once. The partition loop holds the partition lock
// while it applies a round — on the plane or behind it, an idle marker, a
// lag update — and never across a fetch, a back-off or a high-watermark
// read. Attach, detach and a checkpoint's capture of a shard take it too,
// so each waits for the round the loop is applying.

// alone puts sh in a sampling group of its own, sampling with ps from
// offset: its start, or the position of the group sh leaves.
func (sh *shard) alone(ps *pane.Sampler, offset int64) {
	sh.group = &subQueue{key: sh.job.groupKey(), members: []*shard{sh}, ps: ps, offset: offset}
}

// watermark is the group sampler's watermark: the latest event time it
// took or advanced to.
func (sub *subQueue) watermark() time.Time { return stream.TimeFromNanos(sub.ps.Watermark()) }

// lock takes the lock of sh's partition, which guards sh's group, its
// sampler and sh's panes, and returns the unlock. A shard's partition
// never changes, so the lock it takes is the one that guards them.
func (sh *shard) lock() (unlock func()) {
	mu := &sh.job.plane.parts[sh.idx].mu
	mu.Lock()
	return mu.Unlock
}

// absorb folds sub into into, an older group of its key, when their
// samplers stand at one point of the stream: the offset they have reached
// and a sampler at the same point (pane.Sampler.SamePoint). sub's members
// then sample through into's sampler, each keeping the late drops sub's
// made beyond into's, and sub is left without members. It reports whether
// sub folded. Callers hold the partition lock.
func (into *subQueue) absorb(sub *subQueue) bool {
	if sub.offset != into.offset || !sub.ps.SamePoint(into.ps) {
		return false
	}
	late := sub.ps.Late() - into.ps.Late()
	for _, sh := range sub.members {
		sh.lateOff += late
		sh.group = into
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

// setLag sets every member's distance behind the high watermark hwm.
func (sub *subQueue) setLag(hwm int64) {
	for _, sh := range sub.members {
		sh.setLag(hwm - sub.offset)
	}
}

// apply applies one delivery to the group at its position. Its sampler
// takes a batch's records from the group's offset on, once — all of them
// but on a group ahead of the plane, which samples from its start — and
// each member counts them and hands the panes it filed and the group's
// watermark to its merger. The loop applies it under the partition lock,
// which checkpoints take, so a checkpoint observes either all of a batch
// or none of it. A group ahead of the plane skips a marker below its start.
func (sub *subQueue) apply(d planeDelivery) {
	n, marked := 0, false
	if d.batch != nil {
		// Exact unless the batch straddles a start ahead of the plane and its
		// time sort swapped records across it; counts and offsets stay exact.
		from := int(min(max(sub.offset-d.batch.Base, 0), int64(d.batch.Len())))
		if n = d.batch.Len() - from; n > 0 {
			sub.ps.Push(d.batch, from, d.batch.Len(), sub.cut)
		}
		sub.offset = max(sub.offset, d.next)
	} else if marked = sub.offset <= d.next; marked {
		sub.ps.Advance(d.mark, sub.cut)
	}
	wm, late := sub.watermark(), sub.ps.Late()
	for _, sh := range sub.members {
		if n > 0 {
			sh.records.Add(int64(n))
			sh.recordsMetric.Add(float64(n))
			sh.lateMetric.Set(float64(late + sh.lateOff))
		}
		if n > 0 || marked {
			sh.deliver(wm)
		}
		if d.haveHWM {
			sh.setLag(d.hwm - sub.offset)
		}
	}
}
