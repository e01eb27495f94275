package server

import (
	"testing"
	"time"

	"streamapprox/internal/query"
	"streamapprox/internal/sampling"
)

// The serving tier's allocation guards, counted rather than timed: what
// a window leaves behind beyond the result the ring keeps is paid for
// again in resident memory, as headroom the collector needs above the
// live heap.

// resultsSince returns the served results with Seq > since in a slice of
// their own.
func (j *job) resultsSince(since int64) []MergedWindow {
	return j.appendResults(nil, since)
}

// firing drives a two-shard job a slide at a time: at each step every
// shard hands the merger one pane and a watermark entering the next
// slide, which fires one window.
type firing struct {
	j    *job
	sums []query.Summary // by shard
	at   time.Time       // the next pane's start
}

// newFiring builds the job of a testSpec of kind, its shards' panes each
// a summary of one fixed sample through the shard's query: a summary is
// the pane's, not the window's, so none is made per step.
func newFiring(t *testing.T, kind string) *firing {
	t.Helper()
	j, err := newJob("q-0", *testSpec(t, kind), fixtureServer(t, 2), nil)
	if err != nil {
		t.Fatal(err)
	}
	sample := &sampling.Sample{Strata: []sampling.StratumSample{
		{Stratum: "a", Values: []float64{1, 12}, Count: 4, Weight: 2},
		{Stratum: "b", Values: []float64{3, 5, 18}, Count: 9, Weight: 3},
	}}
	f := &firing{j: j, at: t0}
	for _, sh := range j.shards {
		f.sums = append(f.sums, sh.q.Summarize(sample))
	}
	return f
}

// step fires the next window.
func (f *firing) step() {
	for i, sh := range f.j.shards {
		mu := &f.j.plane.parts[sh.idx].mu
		mu.Lock()
		sh.panes = append(sh.panes, query.Pane{Start: f.at, Summary: f.sums[i]})
		sh.deliver(f.at.Add(f.j.spec.Slide))
		mu.Unlock()
	}
	f.at = f.at.Add(f.j.spec.Slide)
}

// TestServedWindowAllocs: once a query's result ring is full, a steady
// cycle of shard panes → merger → emit → stream drain allocates nothing
// but what the ring entry of the window it fires keeps.
func TestServedWindowAllocs(t *testing.T) {
	for _, tc := range []struct {
		kind string
		// keeps is what one ring entry holds of its own: a sum none, a
		// group-by its Groups map (the map and its one table of up to 8
		// groups), a histogram its Buckets array.
		keeps float64
	}{
		{"sum", 0},
		{"groupby-mean", 2},
		{"histogram", 1},
	} {
		t.Run(tc.kind, func(t *testing.T) {
			f := newFiring(t, tc.kind)
			last := int64(-1)
			var results []MergedWindow
			var buf []byte
			var keys []string
			cycle := func() {
				f.step()
				results = f.j.appendResults(results[:0], last)
				buf = buf[:0]
				for i := range results {
					buf = append(appendWindow(buf, &results[i], &keys), '\n')
					last = results[i].Seq
				}
				clear(results)
			}
			for range maxKept + 1 {
				cycle()
			}
			if f.j.kept != maxKept || len(results) != 1 || len(buf) == 0 {
				t.Fatalf("%d results kept, %d drained: the ring is not full, or a cycle fires other than one window", f.j.kept, len(results))
			}
			if n := testing.AllocsPerRun(200, cycle); n > tc.keeps {
				t.Errorf("%v allocations per window, want at most the %v its ring entry keeps", n, tc.keeps)
			}
		})
	}
}
