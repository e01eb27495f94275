package server

import (
	"encoding/json"
	"fmt"
	"os"
	"testing"
	"time"

	"streamapprox/internal/broker"
	"streamapprox/internal/stream"
	"streamapprox/internal/xrand"
)

// fixtureStream is a deterministic stream of n events 2 ms apart over ten
// strata of unequal rates, means and spreads. s07, s08 and s09 each draw
// about one event in a hundred, so their panes often hold a single
// sampled item of several: the cells that borrow a pooled variance.
func fixtureStream(seed uint64, n int) []stream.Event {
	rng := xrand.New(seed)
	base := time.Date(2017, 12, 11, 0, 0, 0, 0, time.UTC)
	cum := []int{40, 65, 77, 85, 90, 94, 97, 98, 99, 100}
	events := make([]stream.Event, n)
	for i := range events {
		draw, k := rng.Intn(100), 0
		for draw >= cum[k] {
			k++
		}
		events[i] = stream.Event{
			Stratum: fmt.Sprintf("s%02d", k),
			Value:   rng.Gaussian(float64(20+15*k), float64(3+2*k)),
			Time:    base.Add(time.Duration(i) * 2 * time.Millisecond),
		}
	}
	return events
}

// keyedBy is the partition of stratum sNN: NN mod k, so each stratum
// lives on one shard.
func keyedBy(k int) func(string) int {
	return func(stratum string) int {
		var n int
		fmt.Sscanf(stratum, "s%d", &n)
		return n % k
	}
}

// fixtureServer is a server over an in-process broker with a topic of
// the given partitions that nothing is produced to: jobs built on it are
// driven by driveShards.
func fixtureServer(t testing.TB, partitions int) *Server {
	t.Helper()
	b := broker.New()
	if err := b.CreateTopic("in", partitions); err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{Cluster: b, Topic: "in", CheckpointEvery: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	return srv
}

// driveShards hands each shard of j the events of its partition that fall
// in [from, to), a quarter second of event time per round, shards in
// index order, each round's records as one batch at the shard's next
// offset, applied through the shard's sampling group. A shard with no
// record in a round is advanced to the job's highest watermark, as the
// plane's idle marker advances it to the plane's mark once its partition
// drains.
func driveShards(j *job, events []stream.Event, part func(string) int, from, to time.Time) {
	const round = 250 * time.Millisecond
	for lo := from; lo.Before(to); lo = lo.Add(round) {
		hi := lo.Add(round)
		if hi.After(to) {
			hi = to
		}
		for _, sh := range j.shards {
			b := stream.GetEventBatch()
			for _, e := range events {
				if !e.Time.Before(lo) && e.Time.Before(hi) && part(e.Stratum) == sh.idx {
					b.AppendEvent(e)
				}
			}
			push(sh, b, maxWatermark(j))
			b.Release()
		}
	}
}

// push applies b to sh's sampling group at the group's offset, as a
// round read there does; an empty b is an idle marker there carrying
// mark.
func push(sh *shard, b *stream.EventBatch, mark time.Time) {
	defer sh.lock()()
	if b.Len() == 0 {
		sh.group.advance(stream.TimeToNanos(mark))
		return
	}
	b.Base = sh.group.offset
	sh.group.take(b)
}

// maxWatermark is the highest event-time watermark across j's shards:
// with j the only query, the plane's mark.
func maxWatermark(j *job) time.Time {
	var mark time.Time
	for _, sh := range j.shards {
		if wm := watermarkOf(sh); wm.After(mark) {
			mark = wm
		}
	}
	return mark
}

// watermarkOf is sh's watermark: its group sampler's.
func watermarkOf(sh *shard) time.Time {
	defer sh.lock()()
	return sh.group.watermark()
}

// groupOf is sh's sampling group, read under its partition lock.
func groupOf(sh *shard) *group {
	defer sh.lock()()
	return sh.group
}

// servedFixture reads a JSON map of served windows.
func servedFixture(t *testing.T, path string) map[string][]MergedWindow {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var served map[string][]MergedWindow
	if err := json.Unmarshal(data, &served); err != nil {
		t.Fatal(err)
	}
	return served
}

// rig drives a server's partitions with no partition loop, stepping each
// partition's value as the loop does, under the partition lock: join
// attaches a query's shards' groups, apply hands a partition a round read
// at its plane position, and idle an idle marker there.
type rig struct {
	t   testing.TB
	srv *Server
}

func newRig(t testing.TB, partitions int) *rig {
	return &rig{t: t, srv: fixtureServer(t, partitions)}
}

// query builds a query of spec on the rig's server and joins its shards;
// a query from "latest" starts at the plane position, the records the rig
// has applied.
func (r *rig) query(id string, spec Spec) *job {
	r.t.Helper()
	if err := spec.normalize(); err != nil {
		r.t.Fatal(err)
	}
	j, err := newJob(id, spec, r.srv, nil)
	if err != nil {
		r.t.Fatal(err)
	}
	if spec.From == "latest" {
		for _, sh := range j.shards {
			sh.group.offset = r.srv.ing.parts[sh.idx].p.next
		}
	}
	r.join(j)
	return j
}

// join attaches every shard's group of j to its partition, where it folds
// into an older group at its point of the stream.
func (r *rig) join(j *job) {
	for _, sh := range j.shards {
		r.step(sh.idx, func(v *partition) { v.attach(sh.group) })
	}
}

// apply hands partition p b as a round read at its plane position.
func (r *rig) apply(p int, b *stream.EventBatch) {
	r.step(p, func(v *partition) {
		b.Base = v.next
		v.round(b)
	})
}

// idle hands partition p an idle marker at its plane position carrying
// mark.
func (r *rig) idle(p int, mark time.Time) {
	r.step(p, func(v *partition) { v.idle(stream.TimeToNanos(mark)) })
}

// step calls f on partition p's value under the partition lock, and
// publishes its gauges, as the loop does.
func (r *rig) step(p int, f func(*partition)) {
	pi := r.srv.ing.parts[p]
	pi.mu.Lock()
	defer pi.mu.Unlock()
	f(&pi.p)
	pi.gauge()
}
