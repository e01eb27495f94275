package server

import (
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"streamapprox/internal/broker"
	"streamapprox/internal/stream"
)

// recordCountingCluster counts the records every batch fetch returns:
// the partition loops' and every reader behind the plane.
type recordCountingCluster struct {
	broker.Cluster
	records atomic.Int64
}

func (c *recordCountingCluster) FetchBatch(topic string, partition int, offset int64, max int, b *stream.EventBatch) (int, error) {
	n, err := c.Cluster.FetchBatch(topic, partition, offset, max, b)
	c.records.Add(int64(n))
	return n, err
}

// stallRun is what stalledGroups saw: the records the broker served, and
// the lowest and highest saproxd_ingest_samplers reading of each
// partition until every query had consumed the partition's records.
type stallRun struct {
	jobs     []*job
	fetched  int64
	samplers [][2]float64
}

// stalledGroups serves specs, which share one sampling-group key, over a
// two-partition topic holding events, stalls each partition's group and
// with it the partition's loop (stallGroups), and waits until every
// query has consumed every record.
func stalledGroups(t *testing.T, specs []Spec, events []stream.Event) stallRun {
	t.Helper()
	bk := broker.New()
	if err := bk.CreateTopic("in", 2); err != nil {
		t.Fatal(err)
	}
	if _, err := produceEvents(bk, "in", events); err != nil {
		t.Fatal(err)
	}
	gc := newGatedCluster(bk)
	rc := &recordCountingCluster{Cluster: gc}
	s, err := New(Config{Cluster: rc, Topic: "in", PollBackoff: time.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	defer gc.open()
	run := stallRun{jobs: registerAll(t, s, specs), samplers: make([][2]float64, len(s.ing.parts))}
	waitGauges(t, s, float64(len(specs)), 1)

	var hwm [2]int64
	for p := range hwm {
		hwm[p], _ = bk.HighWatermark("in", p)
	}
	var watch sync.WaitGroup
	for p, pi := range s.ing.parts {
		watch.Add(1)
		go func() {
			defer watch.Done()
			lo, hi := pi.samplersGauge.Value(), pi.samplersGauge.Value()
			for stop := time.Now().Add(30 * time.Second); time.Now().Before(stop); time.Sleep(100 * time.Microsecond) {
				v := pi.samplersGauge.Value()
				lo, hi = min(lo, v), max(hi, v)
				consumed := true
				for _, j := range run.jobs {
					consumed = consumed && j.shards[p].records.Load() >= hwm[p]
				}
				if consumed {
					break
				}
			}
			run.samplers[p] = [2]float64{lo, hi}
		}()
	}
	stallGroups(t, s, gc)
	for _, j := range run.jobs {
		waitJobRecords(t, j, int64(len(events)), 30*time.Second)
	}
	watch.Wait()
	run.fetched = rc.records.Load()
	for _, j := range run.jobs {
		checkWindowsOnce(t, j, events)
	}
	return run
}

// A stalled group holds its partition's loop, which then reads on from
// where it stopped, with the sampler the group's members share: however
// many queries ride the group, the broker serves each produced record
// once, and the partition runs one sampler throughout.
func TestShedGroupReadsBacklogOnce(t *testing.T) {
	events := makeSwappedEvents(59, 64000)
	for _, members := range []int{1, 3, 8} {
		t.Run(fmt.Sprintf("%d members", members), func(t *testing.T) {
			run := stalledGroups(t, groupSpecs(members), events)
			if run.fetched != int64(len(events)) {
				t.Errorf("%d-member group: %d records fetched for %d produced, want each once", members, run.fetched, len(events))
			}
			for p, r := range run.samplers {
				if r != [2]float64{1, 1} {
					t.Errorf("partition %d ran %v to %v samplers through the recovery, want 1", p, r[0], r[1])
				}
			}
		})
	}
}

// shedParentFile holds what commit 0564fcf served over groupSpecs(4),
// shedding each held group off the plane through a depth-1 delivery
// queue and dissolving it into one private catch-up per member: every
// window of each query that ends a slide before the last event. Setting
// SHED_PARENT_OUT to a path makes the test write what stalledGroups
// served there instead of checking it.
const shedParentFile = "testdata/shed_parent.json"

// A stalled group serves the windows a shed group dissolved into private
// catch-ups served, bit for bit.
func TestShedWindowsMatchParent(t *testing.T) {
	events := makeSwappedEvents(61, 64000)
	run := stalledGroups(t, groupSpecs(4), events)
	last := events[len(events)-1].Time
	got := map[string][]MergedWindow{}
	for _, j := range run.jobs {
		for _, w := range j.resultsSince(-1) {
			if !w.Start.Add(j.spec.Window + j.spec.Slide).After(last) {
				got[j.id] = append(got[j.id], w)
			}
		}
	}
	if out := os.Getenv("SHED_PARENT_OUT"); out != "" {
		data, err := json.Marshal(got)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(out, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want := servedFixture(t, shedParentFile)
	if len(got) != len(want) {
		t.Fatalf("%d queries served windows, parent %d", len(got), len(want))
	}
	for id, ws := range want {
		g := got[id]
		if len(g) != len(ws) || len(ws) < 10 {
			t.Errorf("%s: %d windows, parent %d", id, len(g), len(ws))
			continue
		}
		for i := range ws {
			// Through JSON, as the fixture went: floats round-trip exactly.
			gb, _ := json.Marshal(g[i])
			var back MergedWindow
			_ = json.Unmarshal(gb, &back)
			if !reflect.DeepEqual(back, ws[i]) {
				t.Errorf("%s window %d is\n%+v\nparent\n%+v", id, i, g[i], ws[i])
			}
		}
	}
}
