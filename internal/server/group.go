package server

import (
	"slices"
	"time"

	"streamapprox/internal/pane"
	"streamapprox/internal/query"
	"streamapprox/internal/sampling"
	"streamapprox/internal/stream"
)

// A partition's bookkeeping is one value, a partition: its sampling
// groups — each with its members, the pane sampler they sample through
// and its position — and the plane position. It has no lock, clock,
// goroutine, broker or metric of its own. Its methods are the events that
// move it: a round read at an offset (round), an idle marker (idle), a
// high watermark read (lag), attach and detach; a checkpoint's capture of
// a shard (capture) reads it. A round at the plane and one behind it take
// one path and differ only in their offset.
//
// The shell around it is partIngest: its loop fetches, paces, keeps the
// idle clock and the metrics, and calls the value under the partition
// lock, partIngest.mu. That is the one lock of everything on a partition:
// the value, and each member's group, panes and lateOff. The lock order
// is server → partition → job; no path holds two partitions' locks or two
// jobs' at once. The loop holds the partition lock while it calls the
// value, and never across a fetch, a back-off or a high watermark read.
// Attach, detach and a checkpoint's capture take it too, so each waits for
// the round the loop is applying.

// partition is one partition's groups, oldest first, and the plane
// position next, the offset the next round at the plane reads. A group
// stands behind the plane while its position is below next, and on the
// plane otherwise: at next, or ahead of it at the start it attached at
// until the plane gets there. Only a round at the plane moves next, so a
// group a round behind the plane brings to next is on the plane from then
// on: nothing splices it, and the plane cannot move under it.
type partition struct {
	groups []*group
	next   int64
	placed bool // whether the first attach has positioned the plane
}

// group is one sampling group: its members, the pane sampler they sample
// through and its position. The sampler samples each round once, and
// every member summarises its panes.
type group struct {
	key     groupKey
	members []*shard
	ps      *pane.Sampler
	summed  []*shard // cut's scratch: the members summarised so far
	// offset is the group's position, the next offset its sampler needs:
	// behind the plane where it stands, on the plane the plane position,
	// and ahead of the plane its start.
	offset int64
}

// groupKey is what makes two shards' samplers interchangeable on a
// partition: the slide and the fixed fraction of their sessions, or the
// job whose controller moves an adaptive one.
type groupKey struct {
	slide    time.Duration
	fraction float64
	owner    *job
}

// attach puts a group of one on the partition at its position, folding
// it into an older group there. The first attach positions the plane at
// its group.
func (p *partition) attach(g *group) {
	if !p.placed {
		p.placed, p.next = true, g.offset
	}
	p.groups = append(p.groups, g)
	p.settle()
}

// detach takes sh off the partition into a group of its own, so no round
// follows detach: with its group's sampler when it was the last member,
// which takes the group off the partition, and with a copy of it otherwise.
func (p *partition) detach(sh *shard) {
	g := sh.group
	i := slices.Index(p.groups, g)
	if i < 0 {
		return // never attached, or detached already
	}
	g.members = slices.DeleteFunc(g.members, func(m *shard) bool { return m == sh })
	if len(g.members) > 0 {
		sh.alone(g.ps.Copy(), g.offset)
	} else {
		sh.alone(g.ps, g.offset)
		p.groups = slices.Delete(p.groups, i, i+1)
	}
}

// read returns the round to read next, [lo, hi): behind the plane first,
// from the lowest position a group stands at there up to the next group's
// position or the plane, so a group ahead of a lower one waits for it;
// at the plane otherwise. A round is at most fetchMax records, and
// lo == hi when no group stands on the partition.
func (p *partition) read() (lo, hi int64) {
	if len(p.groups) == 0 {
		return p.next, p.next
	}
	lo, hi = p.next, p.next
	for _, g := range p.groups {
		switch {
		case g.offset < lo:
			lo, hi = g.offset, lo
		case g.offset > lo && g.offset < hi:
			hi = g.offset
		}
	}
	if lo == p.next {
		return lo, lo + fetchMax
	}
	return lo, min(hi, lo+fetchMax)
}

// round applies a batch read at b.Base, in event-time order, to every
// group standing there and, read at the plane, to every group ahead of
// it, which samples the batch from its start on. A round at the plane
// moves the plane past it. Then what stands at one point folds.
func (p *partition) round(b *stream.EventBatch) {
	plane := b.Base == p.next
	if plane {
		p.next += int64(b.Len())
	}
	for _, g := range p.groups {
		if g.offset == b.Base || plane && g.offset > b.Base {
			g.take(b)
		}
	}
	p.settle()
}

// idle applies an idle marker carrying the plane's mark to every group
// standing at the plane position: the partition is drained there. A group
// behind the plane or ahead of it skips it.
func (p *partition) idle(mark int64) {
	for _, g := range p.groups {
		if g.offset == p.next {
			g.advance(mark)
		}
	}
	p.settle()
}

// lag sets every member's distance behind hwm, a high watermark read.
func (p *partition) lag(hwm int64) {
	for _, g := range p.groups {
		for _, sh := range g.members {
			sh.setLag(hwm - g.offset)
		}
	}
}

// settle folds each group into the first older group it can fold into
// (absorb), and takes it off the partition.
func (p *partition) settle() {
	for i := 1; i < len(p.groups); i++ {
		for _, into := range p.groups[:i] {
			if into.absorb(p.groups[i]) {
				p.groups = slices.Delete(p.groups, i, i+1)
				i--
				break
			}
		}
	}
}

// alone puts sh in a sampling group of its own, sampling with ps from
// offset: its start, or the position of the group sh leaves.
func (sh *shard) alone(ps *pane.Sampler, offset int64) {
	sh.group = &group{key: sh.job.groupKey(), members: []*shard{sh}, ps: ps, offset: offset}
}

// watermark is the group sampler's watermark: the latest event time it
// took or advanced to.
func (g *group) watermark() time.Time { return stream.TimeFromNanos(g.ps.Watermark()) }

// lock takes the lock of sh's partition, which guards sh's group, its
// sampler and sh's panes, and returns the unlock. A shard's partition
// never changes, so the lock it takes is the one that guards them.
func (sh *shard) lock() (unlock func()) {
	mu := &sh.job.plane.parts[sh.idx].mu
	mu.Lock()
	return mu.Unlock
}

// absorb folds sub into into, an older group of its key, when both stand
// at one point of the stream: the offset they have reached and a sampler
// at the same point (pane.Sampler.SamePoint). sub's members then sample
// through into's sampler, each keeping the late drops sub's made beyond
// into's, and sub is left without members. It reports whether sub folded.
func (into *group) absorb(sub *group) bool {
	if sub.key != into.key || sub.offset != into.offset || !sub.ps.SamePoint(into.ps) {
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
func (g *group) cut(start int64, s *sampling.Sample, _ int64) {
	if s == nil {
		return
	}
	at := stream.TimeFromNanos(start)
	for _, sh := range g.members {
		var sum query.Summary
		if k := slices.IndexFunc(g.summed, func(o *shard) bool { return query.SummarizesAlike(o.q, sh.q, s) }); k >= 0 {
			o := g.summed[k]
			sum = o.panes[len(o.panes)-1].Summary
		} else {
			sum = sh.q.Summarize(s)
		}
		sh.panes = append(sh.panes, query.Pane{Start: at, Summary: sum})
		g.summed = append(g.summed, sh)
	}
	clear(g.summed)
	g.summed = g.summed[:0]
}

// take samples a batch's records from the group's position on, once —
// all of them but on a group ahead of the plane, which samples from its
// start — and moves the group past the batch; each member counts them and
// hands the panes it filed and the group's watermark to its merger. A
// checkpoint, which takes the partition lock, observes all of a batch or
// none of it.
func (g *group) take(b *stream.EventBatch) {
	// Exact unless the batch straddles a start ahead of the plane and its
	// time sort swapped records across it; counts and offsets stay exact.
	from := int(min(max(g.offset-b.Base, 0), int64(b.Len())))
	n := b.Len() - from
	if n == 0 {
		return
	}
	g.ps.Push(b, from, b.Len(), g.cut)
	g.offset = b.Base + int64(b.Len())
	wm, late := g.watermark(), g.ps.Late()
	for _, sh := range g.members {
		sh.records.Add(int64(n))
		sh.recordsMetric.Add(float64(n))
		sh.lateMetric.Set(float64(late + sh.lateOff))
		sh.deliver(wm)
	}
}

// advance moves the group's sampler to mark, an idle marker's event time,
// and each member hands its merger what that finished and the watermark.
func (g *group) advance(mark int64) {
	g.ps.Advance(mark, g.cut)
	wm := g.watermark()
	for _, sh := range g.members {
		sh.deliver(wm)
	}
}
