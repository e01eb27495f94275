package server

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"
	"unsafe"

	"streamapprox"
	"streamapprox/internal/pane"
	"streamapprox/internal/stream"
)

// These tests pin a sampling group's shared sampler to private ones: a
// member serves the windows its spec serves sampling alone — the same
// items and sample sizes, estimates that cover — its checkpoint is the
// session its group's sampler makes it, and neither another member's
// deletion nor the summaries it shares change what it serves.

var shareEdges = []float64{40, 70, 85, 100, 115, 130, 160}

// shareSpecs are a group's specs, first member first: the four kinds over
// two window lengths, and a copy of the first spec under another seed.
func shareSpecs(slide time.Duration, f float64) []Spec {
	var out []Spec
	for i, kind := range []string{"sum", "mean", "groupby-mean", "histogram", "sum"} {
		out = append(out, Spec{Kind: kind, Window: time.Duration(2+3*(i%2)) * slide, Slide: slide,
			Fraction: f, HistogramEdges: shareEdges, Seed: uint64(7*i + 1)})
	}
	return out
}

// shareBatches is a seeded stream of four Gaussian strata at about 200
// events per event-second, with a straggler behind the watermark now and
// then, cut into batches of random length, each sorted by time as the
// plane's consumer sorts them.
func shareBatches(seed int64, seconds int) [][]stream.Event {
	rng := rand.New(rand.NewSource(seed))
	strata := []string{"a", "b", "c", "d"}
	var out [][]stream.Event
	t := t0
	for t.Before(t0.Add(time.Duration(seconds) * time.Second)) {
		batch := make([]stream.Event, 50+rng.Intn(400))
		for i := range batch {
			k := rng.Intn(len(strata))
			at := t
			if rng.Intn(50) == 0 {
				at = t.Add(-time.Duration(1+rng.Intn(2000)) * time.Millisecond)
			} else {
				t = t.Add(time.Duration(rng.Intn(10)) * time.Millisecond)
				at = t
			}
			batch[i] = stream.Event{Stratum: strata[k], Value: 100 + 15*float64(k) + (5+5*float64(k))*rng.NormFloat64(), Time: at}
		}
		b := stream.BatchOf(batch)
		b.SortByTime()
		out = append(out, b.Events())
		b.Release()
	}
	return out
}

// feed applies every batch to the rig's one partition and then deletes
// every query, flushing what it holds.
func feed(r *rig, batches [][]stream.Event, jobs ...*job) {
	for _, events := range batches {
		b := stream.BatchOf(events)
		r.apply(0, b)
		b.Release()
	}
	for _, j := range jobs {
		j.stop(true)
	}
}

// keptWindows is each window's exact sum and item count over the records
// a shard keeps: those not behind the running maximum time.
func keptWindows(batches [][]stream.Event, size, slide time.Duration) (sums, counts map[time.Time]float64) {
	var kept, ones []stream.Event
	var mark time.Time
	for _, batch := range batches {
		for _, e := range batch {
			if !e.Time.Before(mark) {
				mark = e.Time
				kept = append(kept, e)
				e.Value = 1
				ones = append(ones, e)
			}
		}
	}
	return exactWindowSums(kept, size, slide), exactWindowSums(ones, size, slide)
}

// A member of a group serves the windows its spec serves sampling alone:
// the same items — exactly those inside it — and the same sample sizes,
// the same late drops, and sum and mean bounds that cover.
func TestGroupMembersSampleAsPrivateSamplers(t *testing.T) {
	checked, covered := 0, 0
	for _, slide := range []time.Duration{time.Second, 5 * time.Second} {
		for _, f := range []float64{0.1, 0.8} {
			label := fmt.Sprintf("slide %v f %v", slide, f)
			specs := shareSpecs(slide, f)
			batches := shareBatches(int64(slide/time.Second)*10+int64(f*10), 240)
			group := newRig(t, 1)
			var grouped, private []*job
			for i, sp := range specs {
				grouped = append(grouped, group.query(fmt.Sprintf("q-%d", i), sp))
				alone := newRig(t, 1)
				private = append(private, alone.query("q", sp))
				feed(alone, batches, private[i])
			}
			if n := group.srv.ing.parts[0].samplersGauge.Value(); n != 1 {
				t.Fatalf("%s: %v samplers for one group", label, n)
			}
			feed(group, batches, grouped...)
			for i, j := range grouped {
				got, want := j.resultsSince(-1), private[i].resultsSince(-1)
				if late, wantLate := j.shards[0].lateMetric.Value(), private[i].shards[0].lateMetric.Value(); late != wantLate || late == 0 {
					t.Errorf("%s member %d: late %v, alone %v", label, i, late, wantLate)
				}
				if len(got) != len(want) || len(got) < 20 {
					t.Fatalf("%s member %d: %d windows, alone %d", label, i, len(got), len(want))
				}
				sums, counts := keptWindows(batches, j.spec.Window, slide)
				for w := range got {
					g, p := got[w], want[w]
					if !g.Start.Equal(p.Start) || g.Items != p.Items || g.Sampled != p.Sampled {
						t.Errorf("%s member %d window %v: items/sampled %d/%d, alone %v %d/%d",
							label, i, g.Start, g.Items, g.Sampled, p.Start, p.Items, p.Sampled)
					}
					if float64(g.Items) != counts[g.Start] {
						t.Errorf("%s member %d window %v: %d items, exact %v", label, i, g.Start, g.Items, counts[g.Start])
					}
					truth := sums[g.Start]
					switch j.spec.Kind {
					case "mean":
						truth /= counts[g.Start]
					case "sum":
					default:
						continue
					}
					checked++
					if math.Abs(g.Value-truth) <= g.Error {
						covered++
					}
				}
			}
		}
	}
	cov := float64(covered) / float64(checked)
	t.Logf("members' sum and mean bounds cover %.3f of %d windows", cov, checked)
	if checked < 500 || cov < 0.92 {
		t.Errorf("members' sum and mean bounds cover %.3f of %d windows, want at least 0.92 of 500", cov, checked)
	}
}

// A member's checkpointed session is the one its group's sampler makes
// it: every member's snapshot holds the group sampler's state, and the
// session restored from one serves, from the segment in flight on, the
// windows the member goes on to serve.
func TestGroupMemberCheckpointIsGroupSampler(t *testing.T) {
	specs := shareSpecs(time.Second, 0.3)
	batches := shareBatches(17, 90)
	r := newRig(t, 1)
	var jobs []*job
	for i, sp := range specs {
		jobs = append(jobs, r.query(fmt.Sprintf("q-%d", i), sp))
	}
	half := len(batches) / 2
	feed(r, batches[:half])
	var states []pane.State
	var restored []*streamapprox.Session
	for _, j := range jobs {
		cf, err := j.checkpoint()
		if err != nil {
			t.Fatal(err)
		}
		st, err := pane.Decode(cf.Shards[0].Session)
		if err != nil {
			t.Fatal(err)
		}
		states = append(states, st.State)
		s, err := streamapprox.RestoreSession(cf.Shards[0].Session)
		if err != nil {
			t.Fatal(err)
		}
		restored = append(restored, s)
	}
	for i := range states {
		if states[i].Sampler == nil || !reflect.DeepEqual(states[i], states[0]) {
			t.Fatalf("member %d's snapshot holds another sampler than member 0's", i)
		}
	}
	from := states[0].SegStart
	feed(r, batches[half:], jobs...)
	for i, s := range restored {
		for _, events := range batches[half:] {
			b := stream.BatchOf(events)
			if err := s.PushBatch(b, 0, b.Len()); err != nil {
				t.Fatal(err)
			}
			b.Release()
		}
		var got []streamapprox.WindowResult
		for _, w := range s.Close() {
			if !w.Start.Before(from) {
				got = append(got, w)
			}
		}
		var want []MergedWindow
		for _, w := range jobs[i].resultsSince(-1) {
			if !w.Start.Before(from) {
				want = append(want, w)
			}
		}
		if len(got) != len(want) || len(got) < 20 {
			t.Fatalf("member %d: restored session served %d windows from %v, the member %d", i, len(got), from, len(want))
		}
		for w := range got {
			g, m := got[w], want[w]
			if !g.Start.Equal(m.Start) || g.Overall.Value != m.Value || g.Overall.Bound != m.Error || g.Items != m.Items || g.Sampled != m.Sampled {
				t.Errorf("member %d window %v: restored %v ± %v (%d/%d), served %v %v ± %v (%d/%d)", i, g.Start,
					g.Overall.Value, g.Overall.Bound, g.Items, g.Sampled, m.Start, m.Value, m.Error, m.Items, m.Sampled)
			}
		}
	}
}

// Deleting a group's first member mid-pane leaves every other member's
// windows exactly as they are in a group whose first member stays.
func TestGroupFirstMemberDeleteLeavesOthersUntouched(t *testing.T) {
	specs := shareSpecs(time.Second, 0.1)
	batches := shareBatches(3, 60)
	served := make([][][]MergedWindow, 2)
	for run, deleteFirst := range []bool{false, true} {
		r := newRig(t, 1)
		var jobs []*job
		for i, sp := range specs {
			jobs = append(jobs, r.query(fmt.Sprintf("q-%d", i), sp))
		}
		half := len(batches) / 2
		feed(r, batches[:half])
		if deleteFirst {
			jobs[0].stop(true)
		}
		feed(r, batches[half:], jobs...)
		for _, j := range jobs[1:] {
			served[run] = append(served[run], j.resultsSince(-1))
		}
	}
	for i := range served[0] {
		if len(served[1][i]) < 50 || !reflect.DeepEqual(served[1][i], served[0][i]) {
			t.Errorf("member %d served %d windows after the first member's deletion unlike the %d beside it",
				i+1, len(served[1][i]), len(served[0][i]))
		}
	}
}

// A member's sample does not depend on when its group formed. Query Q
// (seed 1) serves, from its second full pane after it starts sharing,
// the windows it serves alone bit for bit, although the group's sampler
// is a member's with Q's seed and spec that registered at the latest
// offset in the middle of the log, and Q caught up into its group.
func TestSharedWindowsIgnoreWhenTheGroupFormed(t *testing.T) {
	spec := Spec{Kind: "groupby-mean", Window: 3 * time.Second, Slide: time.Second, Fraction: 0.3, Seed: 1}
	batches := shareBatches(5, 90)
	alone := newRig(t, 1)
	q := alone.query("q", spec)
	feed(alone, batches, q)
	want := map[time.Time]MergedWindow{}
	for _, w := range q.resultsSince(-1) {
		want[w.Start] = w
	}

	r := newRig(t, 1)
	memberAt, catchUp := len(batches)/3, len(batches)/2
	var member, late *job
	var sharedAt time.Time // the segment the group's sampler was in when Q first shared
	for i, events := range batches {
		switch i {
		case memberAt:
			latest := spec
			latest.From = "latest"
			member = r.query("m", latest)
		case catchUp:
			// Q registers at the earliest offset, reads the log up to the
			// plane privately, and joins the member's group there.
			var err error
			if late, err = newJob("q", spec, r.srv, nil); err != nil {
				t.Fatal(err)
			}
			for _, ev := range batches[:i] {
				b := stream.BatchOf(ev)
				push(late.shards[0], b, time.Time{})
				b.Release()
			}
			r.join(late)
		}
		b := stream.BatchOf(events)
		r.apply(0, b)
		b.Release()
		if late == nil || !sharedAt.IsZero() {
			continue
		}
		if sub := late.shards[0].group; sub == member.shards[0].group {
			sharedAt = sub.ps.State().SegStart
		}
	}
	member.stop(true)
	late.stop(true)
	if sharedAt.IsZero() {
		t.Fatal("Q never shared the member's sampler")
	}
	compared := 0
	for _, w := range late.resultsSince(-1) {
		if w.Start.Before(sharedAt.Add(2 * time.Second)) {
			continue
		}
		compared++
		if !reflect.DeepEqual(w, want[w.Start]) {
			t.Errorf("window %v served sharing since %v is\n%+v\nalone\n%+v", w.Start, sharedAt, w, want[w.Start])
		}
	}
	t.Logf("Q shared from %v; %d windows compared", sharedAt, compared)
	if compared < 20 {
		t.Errorf("%d windows compared after Q shared from %v, want 20", compared, sharedAt)
	}
}

// shapeSpecs are a first member and eight more over every kind, at two
// confidences and two window lengths: two histograms on shareEdges, one
// on other edges.
func shapeSpecs() []Spec {
	var out []Spec
	for i, kind := range []string{"sum", "count", "mean", "groupby-sum", "groupby-mean", "groupby-count", "histogram", "histogram", "histogram"} {
		out = append(out, Spec{Kind: kind, Window: time.Duration(2+3*(i%2)) * time.Second, Slide: time.Second,
			Fraction: 0.3, Confidence: []int{95, 997}[i%2], HistogramEdges: shareEdges, Seed: uint64(7*i + 1)})
	}
	out[8].HistogramEdges = []float64{50, 100, 150}
	return out
}

// summaryShape is what a spec's query summarises a pane to.
func summaryShape(sp Spec) string {
	switch sp.Kind {
	case "count", "groupby-count":
		return "counts"
	case "histogram":
		return fmt.Sprint("hits", sp.HistogramEdges)
	default:
		return "values"
	}
}

// sharedPanes checks that two members' panes of one slide, as their
// mergers hold them, lie on one Strata array exactly when their queries
// summarise alike, and returns how many pairs of panes do.
func sharedPanes(t *testing.T, jobs []*job) int {
	t.Helper()
	n := 0
	for a := range jobs {
		for b := a + 1; b < len(jobs); b++ {
			for _, sa := range jobs[a].merger.slides {
				for _, sb := range jobs[b].merger.slides {
					pa, pb := sa.panes[0], sb.panes[0]
					if !sa.start.Equal(sb.start) || !pa.ok || !pb.ok || len(pa.sum.Strata) == 0 {
						continue
					}
					same := unsafe.SliceData(pa.sum.Strata) == unsafe.SliceData(pb.sum.Strata)
					if alike := summaryShape(jobs[a].spec) == summaryShape(jobs[b].spec); same != alike {
						t.Fatalf("pane %v of members %d and %d: one Strata array %v, alike %v", sa.start, a, b, same, alike)
					}
					if same {
						n++
					}
				}
			}
		}
	}
	return n
}

// A group summarises each pane once per distinct shape among its members'
// queries and shares the summary: each member serves the windows it serves
// sharing with the first member alone.
func TestGroupSummarisesOncePerShape(t *testing.T) {
	specs := shapeSpecs()
	batches := shareBatches(17, 90)
	r := newRig(t, 1)
	var jobs []*job
	for i, sp := range specs {
		jobs = append(jobs, r.query(fmt.Sprintf("q-%d", i), sp))
	}
	shared := 0
	for _, events := range batches {
		b := stream.BatchOf(events)
		r.apply(0, b)
		b.Release()
		shared += sharedPanes(t, jobs)
	}
	if shared == 0 {
		t.Fatal("no two members shared a pane's summary")
	}
	feed(r, nil, jobs...)
	for i, sp := range specs[1:] {
		pair := newRig(t, 1)
		first, member := pair.query("q-0", specs[0]), pair.query("q-1", sp)
		feed(pair, batches, first, member)
		got, want := jobs[i+1].resultsSince(-1), member.resultsSince(-1)
		for w := range want {
			want[w].Query = jobs[i+1].id
		}
		if len(got) < 40 || !reflect.DeepEqual(got, want) {
			t.Errorf("member %d (%s): %d windows unlike the %d it serves beside the first member alone",
				i+1, summaryShape(sp), len(got), len(want))
		}
	}
}

// Specs whose samplers are not interchangeable never share one, and a
// member shares only from the group's point of the stream.
func TestUnlikeSpecsNeverShare(t *testing.T) {
	base := Spec{Kind: "sum", Window: 2 * time.Second, Slide: time.Second, Fraction: 0.5}
	batches := shareBatches(5, 6)
	for name, sp := range map[string]Spec{
		"fraction":     {Kind: "sum", Window: 2 * time.Second, Slide: time.Second, Fraction: 0.4},
		"slide":        {Kind: "sum", Window: 2 * time.Second, Slide: 2 * time.Second, Fraction: 0.5},
		"target error": {Kind: "sum", Window: 2 * time.Second, Slide: time.Second, Fraction: 0.5, TargetError: 0.05},
	} {
		r := newRig(t, 1)
		r.query("q-0", base)
		r.query("q-1", sp)
		feed(r, batches)
		if pi := r.srv.ing.parts[0]; len(pi.p.groups) != 2 || pi.samplersGauge.Value() != 2 {
			t.Errorf("%s: %d groups, %v samplers", name, len(pi.p.groups), pi.samplersGauge.Value())
		}
	}
	r := newRig(t, 1)
	group := r.query("q-0", base).shards[0].group
	feed(r, batches[:2])
	samplers := r.srv.ing.parts[0].samplersGauge
	// A shard behind the group samples in a group of its own.
	behind := r.query("q-1", base)
	if samplers.Value() != 2 || behind.shards[0].group == group {
		t.Errorf("a shard at another offset shares: %v samplers", samplers.Value())
	}
	// One that read what the group did, in a group of its own, folds in.
	spec := base
	if err := spec.normalize(); err != nil {
		t.Fatal(err)
	}
	late, err := newJob("q-2", spec, r.srv, nil)
	if err != nil {
		t.Fatal(err)
	}
	sh := late.shards[0]
	for _, events := range batches[:2] {
		b := stream.BatchOf(events)
		push(sh, b, time.Time{})
		b.Release()
	}
	r.join(late)
	if samplers.Value() != 2 || sh.group != group {
		t.Errorf("a shard at the group's point of the stream samples in a group of its own: %v samplers", samplers.Value())
	}
}
