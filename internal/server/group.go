package server

import (
	"slices"

	"streamapprox/internal/query"
	"streamapprox/internal/sampling"
	"streamapprox/internal/stream"
)

// A sampling group owns the one pane sampler its sharing members share,
// under the group lock. The lock order is plane → group → shard → job:
// the partition loop, the sweep, join and detach hold the group lock and take
// one member's shard lock at a time, and a sharing member's
// checkpoint takes the group lock before its shard's. No path holds two
// shards' locks at once.

// lockSampler locks sh and, while it shares its group's sampler, first
// the group, whose lock guards that sampler; it returns the unlock. The
// group read before its lock is held may have changed by then, and the
// attempt then starts over.
func (sh *shard) lockSampler() (unlock func()) {
	for {
		sub := sh.sharing.Load()
		if sub != nil {
			sub.mu.Lock()
		}
		sh.mu.Lock()
		if sh.sharing.Load() == sub {
			if sub == nil {
				return sh.mu.Unlock
			}
			return func() { sh.mu.Unlock(); sub.mu.Unlock() }
		}
		sh.mu.Unlock()
		if sub != nil {
			sub.mu.Unlock()
		}
	}
}

// take makes private member sh the first to share: the group takes its
// sampler — moved, not copied — and the offset it stands at. Callers
// hold sub.mu, or have not published the group yet.
func (sub *subQueue) take(sh *shard) {
	sh.mu.Lock()
	sub.ps, sh.ps = sh.ps, nil
	sub.offset = sh.offset
	sh.sharing.Store(sub)
	sh.mu.Unlock()
}

// share makes a private member share the group's sampler when it stands
// at the group's point of the stream: the offset the sampler has reached,
// and a sampler at the same point (pane.Sampler.SamePoint). Its own
// sampler is dropped; the late drops it made beyond the group's are kept.
// Callers hold sub.mu.
func (sub *subQueue) share(sh *shard) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.ps != nil && sh.offset == sub.offset && sh.ps.SamePoint(sub.ps) {
		sh.lateOff += sh.ps.Late() - sub.ps.Late()
		sh.ps = nil
		sh.sharing.Store(sub)
		sub.samplers.Add(-1)
	}
}

// leave gives a sharing member a sampler of its own: a copy of the
// group's, seed included, which samples on from the same point.
// Callers hold sub.mu.
func (sub *subQueue) leave(sh *shard) {
	sh.mu.Lock()
	if sh.sharing.Load() == sub {
		sh.ps = sub.ps.Copy()
		sh.sharing.Store(nil)
		sub.samplers.Add(1)
	}
	sh.mu.Unlock()
}

// hand gives a sharing member the group's sampler itself, when no other
// member shares it. Callers hold sub.mu.
func (sub *subQueue) hand(sh *shard) {
	sh.mu.Lock()
	if sh.sharing.Load() == sub {
		sh.ps, sub.ps = sub.ps, nil
		sh.sharing.Store(nil)
	}
	sh.mu.Unlock()
}

// shares reports whether sh shares the group's sampler.
func (sub *subQueue) shares(sh *shard) bool { return sh.sharing.Load() == sub }

// remove takes sh out of a group it does not leave empty, keeping a
// sampler of its own. The group's first member shares its sampler; when
// that member leaves, the next sharing member becomes first, or — none
// sharing — the member leaves with the group's sampler and the group
// takes the next member's. Either way every private member then standing
// at the group's point shares. Callers hold sub.mu.
func (sub *subQueue) remove(sh *shard) {
	i := slices.Index(sub.members, sh)
	if i == 0 {
		i = slices.IndexFunc(sub.members[1:], sub.shares) + 1
		if i == 0 {
			i = 1
			sub.hand(sh)
			sub.take(sub.members[1])
		}
		sub.members[0], sub.members[i] = sub.members[i], sh
		for _, m := range sub.members[1:] {
			if m != sh {
				sub.share(m)
			}
		}
	}
	sub.leave(sh)
	sub.samplers.Add(-1)
	sub.members = slices.Delete(sub.members, i, i+1)
}

// dissolve ends the group: its first member keeps the group's sampler and
// every other sharing member a copy of it. A group that merged into
// another has no members left. Callers hold sub.mu.
func (sub *subQueue) dissolve() {
	for _, sh := range sub.members[min(len(sub.members), 1):] {
		sub.leave(sh)
	}
	for _, sh := range sub.members {
		sub.hand(sh)
		sub.samplers.Add(-1)
	}
	sub.members = nil
}

// cut files a segment the group's sampler finished as a pane of every
// sharing member, summarised once per distinct shape among their queries
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
		if !sub.shares(sh) {
			continue
		}
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

// apply applies one delivery to every member: the group's sampler takes
// it for the sharing members, each private member's for itself, and a
// private member that then stands at the group's point shares. A member
// that joined past a marker's position skips the marker, and a group that
// ended after the loop took it skips the delivery.
func (sub *subQueue) apply(d planeDelivery) {
	sub.mu.Lock()
	defer sub.mu.Unlock()
	if len(sub.members) == 0 {
		return
	}
	for i, sh := range sub.members {
		sh.mu.Lock()
		lead := i == 0
		switch {
		case d.batch != nil:
			if from := sh.skipFrom(d.batch); lead && from < d.batch.Len() {
				sub.ps.Push(d.batch, from, d.batch.Len(), sub.cut)
			}
			sh.consumeLocked(d.batch, d.next)
		case sh.skipUntil <= d.next:
			if lead {
				sub.ps.Advance(d.mark, sub.cut)
			}
			sh.advanceLocked(d.mark)
		}
		if d.haveHWM {
			sh.setLag(d.hwm - sh.offset)
		}
		if i == 0 {
			sub.offset = sh.offset
		}
		sh.mu.Unlock()
	}
	for _, sh := range sub.members[1:] {
		sub.share(sh)
	}
}
