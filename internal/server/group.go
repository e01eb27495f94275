package server

import "slices"

// A sampling group's members change state only under the group lock and
// every member's shard lock, taken leader first and then in member order:
// plane → group → leader shard → member shard → member job is the one lock
// order of the drainer, join, detach and idle punctuation, and a
// checkpoint of a follower takes its leader's lock before its own.

// lockWithLeader locks sh and, while it follows, its leader first; it
// returns the unlock. The leader read under sh.mu may be stale by the
// time its lock is held — promoted away, now after sh in member order —
// so sh is only tried under it, and the attempt starts over on failure.
func (sh *shard) lockWithLeader() (unlock func()) {
	for {
		sh.mu.Lock()
		lead := sh.lead
		if lead == nil {
			return sh.mu.Unlock
		}
		sh.mu.Unlock()
		lead.mu.Lock()
		if sh.mu.TryLock() {
			if sh.lead == lead {
				return func() { sh.mu.Unlock(); lead.mu.Unlock() }
			}
			sh.mu.Unlock()
		}
		lead.mu.Unlock()
	}
}

// lockAll locks every member's shard, leader first.
func (sub *subQueue) lockAll() {
	for _, sh := range sub.members {
		sh.mu.Lock()
	}
}

func (sub *subQueue) unlockAll() {
	for _, sh := range sub.members {
		sh.mu.Unlock()
	}
}

// tryFollow makes a private member follow the leader when it stands at
// the leader's point of the stream: the same applied offset, and a
// session Follow accepts. Callers hold sub.mu and every member lock.
func (sub *subQueue) tryFollow(sh *shard) {
	lead := sub.members[0]
	if sh != lead && sh.lead == nil && sh.offset == lead.offset && sh.sess.Follow(lead.sess) {
		sh.lead = lead
		sub.samplers.Add(-1)
	}
}

// unfollow gives a following member a sampler of its own: a copy of its
// leader's. Callers hold sub.mu and every member lock.
func (sub *subQueue) unfollow(sh *shard) {
	if sh.lead != nil {
		sh.sess.Unfollow()
		sh.lead = nil
		sub.samplers.Add(1)
	}
}

// remove takes sh out of a group it does not leave empty, keeping a
// sampler of its own. A leaving leader hands over before it finishes a
// segment of its own: every follower takes a copy of its sampler — all
// the same state — and the first of them leads from there, the others
// following it again. Callers hold sub.mu.
func (sub *subQueue) remove(sh *shard) {
	sub.lockAll()
	i := slices.Index(sub.members, sh)
	if i == 0 {
		i = max(slices.IndexFunc(sub.members, func(m *shard) bool { return m.lead != nil }), 1)
		for _, m := range sub.members {
			sub.unfollow(m)
		}
		sub.members[0], sub.members[i] = sub.members[i], sh
		for _, m := range sub.members[1:] {
			if m != sh {
				sub.tryFollow(m)
			}
		}
	}
	sub.unfollow(sh)
	sub.samplers.Add(-1)
	sub.unlockAll()
	sub.members = slices.Delete(sub.members, i, i+1)
}

// apply applies one batch to every member: the leader samples it for
// itself and its followers, a private member for itself, and a private
// member that then stands at the leader's point of the stream follows.
func (sub *subQueue) apply(d planeDelivery) {
	sub.mu.Lock()
	defer sub.mu.Unlock()
	sub.lockAll()
	defer sub.unlockAll()
	for _, sh := range sub.members {
		sh.depth.Set(float64(len(sub.ch)))
		sh.consumeLocked(d.batch, d.next)
		if d.haveHWM {
			sh.setLag(d.hwm - sh.offset)
		}
	}
	for _, sh := range sub.members[1:] {
		sub.tryFollow(sh)
	}
}

// idle applies an idle punctuation: every member advances to its own
// job's highest watermark as the marker captured it when queued, as an
// ungrouped shard would. The shared sampler moves with the leader, so a
// follower whose job stood elsewhere first leaves it with a copy, and
// follows again once it is back at the leader's point of the stream: no
// record is dropped as late that an ungrouped shard would keep. A member
// the marker has no mark for joined after it was queued; it leaves the
// shared sampler too and does not advance.
func (sub *subQueue) idle(d planeDelivery) {
	sub.mu.Lock()
	defer sub.mu.Unlock()
	sub.lockAll()
	defer sub.unlockAll()
	lead, leadOK := d.marks[sub.members[0]]
	for _, sh := range sub.members {
		if mark, ok := d.marks[sh]; !ok || !leadOK || !mark.Equal(lead) {
			sub.unfollow(sh)
		}
	}
	for _, sh := range sub.members {
		if mark, ok := d.marks[sh]; ok {
			sh.idleLocked(mark, d.hwm)
		}
	}
}
