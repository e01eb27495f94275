package server

import (
	"encoding/json"
	"fmt"
	"os"
	"slices"
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
// offset. A shard with no record in a round is advanced to the job's
// watermark, as the plane's idle marker does once its partition drains.
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
			sh.mu.Lock()
			if b.Len() > 0 {
				b.Base = sh.offset
				sh.consumeLocked(b, sh.offset+int64(b.Len()))
				sh.mu.Unlock()
			} else {
				sh.mu.Unlock()
				mark := j.maxWatermark()
				sh.mu.Lock()
				sh.idleLocked(mark, sh.offset)
				sh.mu.Unlock()
			}
			b.Release()
		}
	}
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

// rig drives a server's sampling groups with no partition loop, as their
// drainers would: join attaches a query's shards to the plane, and apply
// hands every group on a partition one batch at the plane's offset.
type rig struct {
	t    testing.TB
	srv  *Server
	next []int64 // the plane's offset per partition
}

func newRig(t testing.TB, partitions int) *rig {
	return &rig{t: t, srv: fixtureServer(t, partitions), next: make([]int64, partitions)}
}

// query builds a query of spec on the rig's server and joins its shards.
func (r *rig) query(id string, spec Spec) *job {
	r.t.Helper()
	if err := spec.normalize(); err != nil {
		r.t.Fatal(err)
	}
	j, err := newJob(id, spec, r.srv, nil)
	if err != nil {
		r.t.Fatal(err)
	}
	r.join(j)
	return j
}

// join attaches every shard of j to its partition's plane.
func (r *rig) join(j *job) {
	for _, sh := range j.shards {
		pi := r.srv.ing.parts[sh.idx]
		pi.mu.Lock()
		pi.join(sh)
		pi.mu.Unlock()
	}
}

// apply hands b, based at partition p's plane offset, to every group on p.
func (r *rig) apply(p int, b *stream.EventBatch) {
	b.Base = r.next[p]
	r.next[p] += int64(b.Len())
	pi := r.srv.ing.parts[p]
	pi.mu.Lock()
	groups := slices.Clone(pi.groups)
	pi.mu.Unlock()
	for _, sub := range groups {
		sub.apply(planeDelivery{batch: b, next: r.next[p], hwm: r.next[p], haveHWM: true})
	}
}
