package server

import (
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"slices"
	"testing"
	"time"

	"streamapprox/internal/stream"
)

// groupedParentFile holds what commit c7c2c4b — whose group members
// followed a leader's Session — served from driveGroups: every query's
// windows, every shard's late count and every partition's sampler gauge
// after each round. Setting GROUPED_PARENT_OUT to a path makes the test
// write what it served there instead of checking it.
const groupedParentFile = "testdata/grouped_parent.json"

type groupedRun struct {
	Windows  map[string][]MergedWindow `json:"windows"`
	Late     map[string][]float64      `json:"late"`     // by "query/shard", after each round
	Samplers [][]float64               `json:"samplers"` // by round, then partition
}

// groupedSpecs are five queries sharing one sampling-group key (a 1 s slide
// at fraction 0.3) — sum, mean, groupby-mean, histogram and a second sum,
// which registers late — and a mean under a target error, which samples
// alone.
func groupedSpecs() []Spec {
	specs := []Spec{
		{Kind: "sum", Window: 3 * time.Second},
		{Kind: "mean", Window: 2 * time.Second},
		{Kind: "groupby-mean", Window: 3 * time.Second},
		{Kind: "histogram", Window: 2 * time.Second, HistogramEdges: []float64{0, 40, 80, 120, 160, 240}},
		{Kind: "sum", Window: 2 * time.Second},
		{Kind: "mean", Window: 3 * time.Second, TargetError: 0.02},
	}
	for i := range specs {
		specs[i].Slide, specs[i].Fraction, specs[i].Seed = time.Second, 0.3, uint64(10*i+1)
	}
	return specs
}

// groupedRounds is a 2-partition topic's deliveries: the fixture stream
// with every 37th record sent 600 ms back, cut into rounds of 125 records
// in arrival order, each partition's share of a round sorted by time, as
// the plane's consumer hands it over.
func groupedRounds(n int) [][2][]stream.Event {
	events := fixtureStream(58, n)
	for i := 36; i < len(events); i += 37 {
		events[i].Time = events[i].Time.Add(-600 * time.Millisecond)
	}
	part := keyedBy(2)
	var rounds [][2][]stream.Event
	for lo := 0; lo < len(events); lo += 125 {
		var r [2][]stream.Event
		for _, e := range events[lo:min(lo+125, len(events))] {
			r[part(e.Stratum)] = append(r[part(e.Stratum)], e)
		}
		for p := range r {
			slices.SortStableFunc(r[p], func(a, b stream.Event) int { return a.Time.Compare(b.Time) })
		}
		rounds = append(rounds, r)
	}
	return rounds
}

// driveGroups drives groupedSpecs through a 2-partition server's sampling
// groups with no partition loop: each round's batch is applied to every
// group in turn. Query 4 registers late: it replays rounds 0–18 privately,
// joins while the groups stand at round 16 and shares once they reach
// it. Query 0, which leads both groups, is deleted mid-pane after round
// 41. After round 60 an idle marker reaches both groups, on partition 1
// with query 2's mark 700 ms ahead of the others'. After round 80, mid-pane,
// every query is checkpointed and restored into a fresh server, which
// serves the rest; at the end every query is deleted.
func driveGroups(t *testing.T) groupedRun {
	rounds := groupedRounds(15000)
	specs := groupedSpecs()
	for i := range specs {
		if err := specs[i].normalize(); err != nil {
			t.Fatal(err)
		}
	}
	run := groupedRun{Windows: map[string][]MergedWindow{}, Late: map[string][]float64{}}
	rg := newRig(t, 2)
	jobs := make([]*job, len(specs))
	newQuery := func(i int, cf *checkpointFile) {
		j, err := newJob(fmt.Sprintf("q-%d", i), specs[i], rg.srv, cf)
		if err != nil {
			t.Fatal(err)
		}
		jobs[i] = j
	}
	for i := range specs {
		if i != 4 {
			newQuery(i, nil)
			rg.join(jobs[i])
		}
	}
	const lateAt, lateAhead, deleteAt, idleAt, checkpointAt = 16, 3, 41, 60, 80
	for r := range rounds {
		if r == lateAt {
			newQuery(4, nil)
			var offsets [2]int64
			for rr := range r + lateAhead {
				for _, sh := range jobs[4].shards {
					b := stream.BatchOf(rounds[rr][sh.idx])
					b.Base = offsets[sh.idx]
					offsets[sh.idx] += int64(b.Len())
					sh.mu.Lock()
					sh.consumeLocked(b, offsets[sh.idx])
					sh.mu.Unlock()
					b.Release()
				}
			}
			rg.join(jobs[4])
		}
		for p := range rg.next {
			b := stream.BatchOf(rounds[r][p])
			rg.apply(p, b)
			b.Release()
		}
		if r == deleteAt {
			jobs[0].stop(true)
			run.Windows[jobs[0].id] = jobs[0].resultsSince(-1)
			jobs[0] = nil
		}
		if r == idleAt {
			var mark time.Time
			for _, j := range jobs {
				if j != nil && j.maxWatermark().After(mark) {
					mark = j.maxWatermark()
				}
			}
			for p, pi := range rg.srv.ing.parts {
				pi.mu.Lock()
				marks := make(map[*shard]time.Time, len(pi.subs))
				for sh := range pi.subs {
					marks[sh] = mark
					if p == 1 && sh.job == jobs[2] {
						marks[sh] = mark.Add(700 * time.Millisecond)
					}
				}
				groups := slices.Clone(pi.groups)
				pi.mu.Unlock()
				for _, sub := range groups {
					sub.idle(planeDelivery{idle: true, hwm: rg.next[p], marks: marks})
				}
			}
		}
		if r == checkpointAt {
			var files []*checkpointFile
			for _, j := range jobs {
				if j == nil {
					continue
				}
				cf, err := j.checkpoint()
				if err != nil {
					t.Fatal(err)
				}
				data, err := json.Marshal(cf)
				if err != nil {
					t.Fatal(err)
				}
				var back checkpointFile
				if err := json.Unmarshal(data, &back); err != nil {
					t.Fatal(err)
				}
				files = append(files, &back)
				run.Windows[j.id] = j.resultsSince(-1)
			}
			rg.srv.Close()
			rg.srv = fixtureServer(t, 2)
			for _, cf := range files {
				var i int
				fmt.Sscanf(cf.ID, "q-%d", &i)
				newQuery(i, cf)
				rg.join(jobs[i])
			}
		}
		for i, j := range jobs {
			for p := range 2 {
				key := fmt.Sprintf("q-%d/%d", i, p)
				if j == nil {
					continue
				}
				run.Late[key] = append(run.Late[key], j.shards[p].lateMetric.Value())
			}
		}
		var samplers []float64
		for _, pi := range rg.srv.ing.parts {
			samplers = append(samplers, pi.samplersGauge.Value())
		}
		run.Samplers = append(run.Samplers, samplers)
	}
	for _, j := range jobs {
		if j != nil {
			j.stop(true)
			run.Windows[j.id] = append(run.Windows[j.id], j.resultsSince(-1)...)
		}
	}
	return run
}

// TestGroupedWindowsMatchParent pins the sampling groups to the build
// whose members followed a leader's Session: through a late query that
// samples privately and then shares, the deletion of the groups' first
// member mid-pane, an idle marker with unequal marks that splits a member
// off until it stands at the group's point again, and a mid-pane
// checkpoint restored into a fresh server, every query serves the same
// windows bit for bit, every shard drops the same records as late and
// every partition runs the same number of samplers.
func TestGroupedWindowsMatchParent(t *testing.T) {
	got := driveGroups(t)
	if out := os.Getenv("GROUPED_PARENT_OUT"); out != "" {
		data, err := json.Marshal(got)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(out, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(groupedParentFile)
	if err != nil {
		t.Fatal(err)
	}
	var want groupedRun
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(got.Windows) != len(want.Windows) {
		t.Fatalf("%d queries served windows, parent %d", len(got.Windows), len(want.Windows))
	}
	for id, ws := range want.Windows {
		g := got.Windows[id]
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
	if !reflect.DeepEqual(got.Late, want.Late) {
		t.Errorf("late counts differ from the parent's:\n%v\nparent\n%v", got.Late, want.Late)
	}
	if !reflect.DeepEqual(got.Samplers, want.Samplers) {
		t.Errorf("sampler gauges differ from the parent's:\n%v\nparent\n%v", got.Samplers, want.Samplers)
	}
}
