package streamapprox

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"
	"unsafe"

	"streamapprox/internal/stream"
)

// These tests pin Session.Follow to private sessions: a follower sees
// exactly the windows a private session of its config sees — the same
// items and sample sizes per window, estimates that cover — and what it
// snapshots, or keeps when its leader closes, is the private session its
// leader's sampler would make it.

var followEdges = []float64{40, 70, 85, 100, 115, 130, 160}

// followConfigs are a group's configs, leader first: the four kinds over
// two window lengths, and a copy of the leader's config under another
// seed.
func followConfigs(slide time.Duration, f float64) []SessionConfig {
	var out []SessionConfig
	for i, q := range []Query{Sum, Mean, GroupByMean, Histogram, Sum} {
		out = append(out, SessionConfig{Query: q, WindowSize: time.Duration(2+3*(i%2)) * slide, WindowSlide: slide,
			Fraction: f, HistogramEdges: followEdges, Seed: uint64(7*i + 1)})
	}
	return out
}

// followBatches is a seeded stream of four Gaussian strata at about 200
// events per event-second, with a straggler behind the watermark now and
// then, cut into batches of random length.
func followBatches(seed int64, seconds int) [][]Event {
	rng := rand.New(rand.NewSource(seed))
	strata := []string{"a", "b", "c", "d"}
	var out [][]Event
	t := batchBase
	for t.Before(batchBase.Add(time.Duration(seconds) * time.Second)) {
		batch := make([]Event, 50+rng.Intn(400))
		for i := range batch {
			k := rng.Intn(len(strata))
			at := t
			if rng.Intn(50) == 0 {
				at = t.Add(-time.Duration(1+rng.Intn(2000)) * time.Millisecond)
			} else {
				t = t.Add(time.Duration(rng.Intn(10)) * time.Millisecond)
				at = t
			}
			batch[i] = Event{Stratum: strata[k], Value: 100 + 15*float64(k) + (5+5*float64(k))*rng.NormFloat64(), Time: at}
		}
		out = append(out, batch)
	}
	return out
}

func toBatch(events []Event) *EventBatch {
	b := NewEventBatch()
	for _, e := range events {
		b.AppendEvent(stream.Event(e))
	}
	return b
}

// exactWindow is a window's exact sum and count over the events a session
// keeps: those not behind the running maximum time.
func exactWindows(batches [][]Event) func(w WindowResult) (sum float64, n int64) {
	var kept []Event
	var mark time.Time
	for _, batch := range batches {
		for _, e := range batch {
			if !e.Time.Before(mark) {
				mark = e.Time
				kept = append(kept, e)
			}
		}
	}
	return func(w WindowResult) (sum float64, n int64) {
		for _, e := range kept {
			if !e.Time.Before(w.Start) && e.Time.Before(w.End) {
				sum += e.Value
				n++
			}
		}
		return sum, n
	}
}

func TestFollowersMatchPrivateSessions(t *testing.T) {
	checked, covered := 0, 0
	for _, slide := range []time.Duration{time.Second, 5 * time.Second} {
		for _, f := range []float64{0.1, 0.8} {
			cfgs := followConfigs(slide, f)
			batches := followBatches(int64(slide/time.Second)*10+int64(f*10), 240)
			exact := exactWindows(batches)
			group := make([]*Session, len(cfgs))
			private := make([]*Session, len(cfgs))
			for i, cfg := range cfgs {
				group[i], private[i] = NewSession(cfg), NewSession(cfg)
				if i > 0 && !group[i].Follow(group[0]) {
					t.Fatalf("slide %v f %v: fresh session %d refused to follow", slide, f, i)
				}
			}
			got := make([][]WindowResult, len(cfgs))
			want := make([][]WindowResult, len(cfgs))
			var restored *Session
			var fromRestored, leaderAfter, followerAfter []WindowResult
			for bi, events := range batches {
				b := toBatch(events)
				if err := group[0].PushBatch(b, 0, b.Len()); err != nil {
					t.Fatal(err)
				}
				if restored != nil {
					_ = restored.PushBatch(b, 0, b.Len())
					fromRestored = append(fromRestored, restored.Poll()...)
				}
				for i, s := range private {
					_ = s.PushBatch(b, 0, b.Len())
					want[i] = append(want[i], s.Poll()...)
					polled := group[i].Poll()
					got[i] = append(got[i], polled...)
					if restored != nil && i == 0 {
						leaderAfter = append(leaderAfter, polled...)
					}
					if restored != nil && i == len(cfgs)-1 {
						followerAfter = append(followerAfter, polled...)
					}
				}
				b.Release()
				if bi == len(batches)/2 {
					// A follower's snapshot is the private session its
					// leader's sampler would make it.
					snap, err := group[len(cfgs)-1].Snapshot()
					if err != nil {
						t.Fatal(err)
					}
					if restored, err = RestoreSession(snap); err != nil {
						t.Fatal(err)
					}
				}
			}
			if len(fromRestored) < 10 || !reflect.DeepEqual(fromRestored, leaderAfter) || !reflect.DeepEqual(fromRestored, followerAfter) {
				t.Errorf("slide %v f %v: %d windows from the restored follower snapshot differ from the group's continuation",
					slide, f, len(fromRestored))
			}
			for i := range cfgs {
				if late, wantLate := group[i].Late(), private[i].Late(); late != wantLate || late == 0 {
					t.Errorf("slide %v f %v session %d: late %d, private %d", slide, f, i, late, wantLate)
				}
				if len(got[i]) != len(want[i]) || len(got[i]) < 20 {
					t.Fatalf("slide %v f %v session %d: %d windows, private %d", slide, f, i, len(got[i]), len(want[i]))
				}
				for w := range got[i] {
					g, p := got[i][w], want[i][w]
					if !g.Start.Equal(p.Start) || g.Items != p.Items || g.Sampled != p.Sampled {
						t.Errorf("slide %v f %v session %d window %v: items/sampled %d/%d, private %v %d/%d",
							slide, f, i, g.Start, g.Items, g.Sampled, p.Start, p.Items, p.Sampled)
					}
					sum, n := exact(g)
					if g.Items != n {
						t.Errorf("slide %v f %v session %d window %v: %d items, exact %d", slide, f, i, g.Start, g.Items, n)
					}
					var truth float64
					switch cfgs[i].Query {
					case Sum:
						truth = sum
					case Mean:
						truth = sum / float64(n)
					default:
						continue
					}
					checked++
					if math.Abs(g.Overall.Value-truth) <= g.Overall.Bound {
						covered++
					}
				}
			}
		}
	}
	cov := float64(covered) / float64(checked)
	t.Logf("followers' sum and mean bounds cover %.3f of %d windows", cov, checked)
	if checked < 500 || cov < 0.92 {
		t.Errorf("followers' sum and mean bounds cover %.3f of %d windows, want at least 0.92 of 500", cov, checked)
	}
}

// A leader closing mid-stream hands each follower a sampler of its own:
// the follower's windows go on exactly as a follower of an identical
// leader that stays open.
func TestLeaderCloseLeavesFollowersUntouched(t *testing.T) {
	cfgs := followConfigs(time.Second, 0.1)
	closing, open := NewSession(cfgs[0]), NewSession(cfgs[0])
	a, b := NewSession(cfgs[2]), NewSession(cfgs[2])
	if !a.Follow(closing) || !b.Follow(open) {
		t.Fatal("fresh sessions refused to follow")
	}
	var got, want []WindowResult
	batches := followBatches(3, 60)
	for i, events := range batches {
		batch := toBatch(events)
		if i == len(batches)/2 {
			closing.Close()
			if err := a.PushBatch(batch, 0, batch.Len()); err != nil {
				t.Fatal(err)
			}
		} else if i < len(batches)/2 {
			_ = closing.PushBatch(batch, 0, batch.Len())
		} else {
			_ = a.PushBatch(batch, 0, batch.Len())
		}
		_ = open.PushBatch(batch, 0, batch.Len())
		batch.Release()
		got, want = append(got, a.Poll()...), append(want, b.Poll()...)
	}
	got, want = append(got, a.Close()...), append(want, b.Close()...)
	if len(got) < 50 || !reflect.DeepEqual(got, want) {
		t.Fatalf("follower of a closed leader served %d windows unlike an open leader's follower (%d)", len(got), len(want))
	}
}

// shareConfigs is a leader and eight followers over every kind, at two
// confidences and two window lengths: two histograms on followEdges, one
// on other edges.
func shareConfigs() []SessionConfig {
	var out []SessionConfig
	for i, q := range []Query{Sum, Count, Mean, GroupBySum, GroupByMean, GroupByCount, Histogram, Histogram, Histogram} {
		out = append(out, SessionConfig{Query: q, WindowSize: time.Duration(2+3*(i%2)) * time.Second, WindowSlide: time.Second,
			Fraction: 0.3, Confidence: []Confidence{Confidence95, Confidence997}[i%2], HistogramEdges: followEdges, Seed: uint64(7*i + 1)})
	}
	out[8].HistogramEdges = []float64{50, 100, 150}
	return out
}

// summaryShape is what a config's query summarises a pane to.
func summaryShape(cfg SessionConfig) string {
	switch cfg.Query {
	case Count, GroupByCount:
		return "counts"
	case Histogram:
		return fmt.Sprint("hits", cfg.HistogramEdges)
	default:
		return "values"
	}
}

// sharedPanes checks that two group members' panes of one segment lie on
// one Strata array exactly when their queries summarise alike, and
// returns how many pairs of panes do.
func sharedPanes(t *testing.T, group []*Session, cfgs []SessionConfig) int {
	t.Helper()
	n := 0
	for a := range group {
		for b := a + 1; b < len(group); b++ {
			for _, pa := range group[a].windows.Panes {
				for _, pb := range group[b].windows.Panes {
					if !pa.Start.Equal(pb.Start) || len(pa.Summary.Strata) == 0 {
						continue
					}
					same := unsafe.SliceData(pa.Summary.Strata) == unsafe.SliceData(pb.Summary.Strata)
					if alike := summaryShape(cfgs[a]) == summaryShape(cfgs[b]); same != alike {
						t.Fatalf("pane %v of members %d and %d: one Strata array %v, alike %v", pa.Start, a, b, same, alike)
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

// A group summarises each pane once per distinct shape and shares it:
// each member's windows are the ones its config gets following a lone
// leader of the same seed, and a sharing follower's snapshot continues
// with its windows.
func TestFollowersShareOneSummaryPerShape(t *testing.T) {
	cfgs := shareConfigs()
	batches := followBatches(17, 90)
	group := make([]*Session, len(cfgs))
	leads := make([]*Session, len(cfgs))
	lone := make([]*Session, len(cfgs)) // lone[i] follows leads[i] alone; lone[0] is leads[0]
	for i, cfg := range cfgs {
		group[i], leads[i] = NewSession(cfg), NewSession(cfgs[0])
		lone[i] = leads[i]
		if i > 0 {
			lone[i] = NewSession(cfg)
			if !group[i].Follow(group[0]) || !lone[i].Follow(leads[i]) {
				t.Fatalf("fresh session %d refused to follow", i)
			}
		}
	}
	const sharer = 2 // Mean: shares its leader's summaries
	got := make([][]WindowResult, len(cfgs))
	want := make([][]WindowResult, len(cfgs))
	var restored *Session
	var fromRestored, sharerAfter []WindowResult
	shared := 0
	for bi, events := range batches {
		b := toBatch(events)
		for _, s := range append([]*Session{group[0]}, leads...) {
			if err := s.PushBatch(b, 0, b.Len()); err != nil {
				t.Fatal(err)
			}
		}
		if restored != nil {
			_ = restored.PushBatch(b, 0, b.Len())
			fromRestored = append(fromRestored, restored.Poll()...)
		}
		b.Release()
		for i := range cfgs {
			polled := group[i].Poll()
			got[i] = append(got[i], polled...)
			want[i] = append(want[i], lone[i].Poll()...)
			if restored != nil && i == sharer {
				sharerAfter = append(sharerAfter, polled...)
			}
		}
		shared += sharedPanes(t, group, cfgs)
		if bi == len(batches)/2 {
			snap, err := group[sharer].Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			if restored, err = RestoreSession(snap); err != nil {
				t.Fatal(err)
			}
		}
	}
	if shared == 0 {
		t.Fatal("no two members shared a pane's summary")
	}
	for i := range cfgs {
		if len(got[i]) < 40 || !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("member %d (%s): %d windows unlike the %d it gets following a lone leader", i, summaryShape(cfgs[i]), len(got[i]), len(want[i]))
		}
	}
	if len(fromRestored) < 20 || !reflect.DeepEqual(fromRestored, sharerAfter) {
		t.Errorf("%d windows from the sharing follower's snapshot differ from its continuation (%d)", len(fromRestored), len(sharerAfter))
	}
}

// Follow refuses sessions whose samplers are not interchangeable, or that
// stand at different points of the stream.
func TestFollowRefusesUnlikeSessions(t *testing.T) {
	base := SessionConfig{Query: Sum, WindowSize: 2 * time.Second, WindowSlide: time.Second, Fraction: 0.5}
	for name, cfg := range map[string]SessionConfig{
		"fraction":     {Query: Sum, WindowSize: 2 * time.Second, WindowSlide: time.Second, Fraction: 0.4},
		"slide":        {Query: Sum, WindowSize: 2 * time.Second, WindowSlide: 2 * time.Second, Fraction: 0.5},
		"target error": {Query: Sum, WindowSize: 2 * time.Second, WindowSlide: time.Second, Fraction: 0.5, TargetError: 0.05},
	} {
		if NewSession(cfg).Follow(NewSession(base)) || NewSession(base).Follow(NewSession(cfg)) {
			t.Errorf("%s: unlike sessions followed", name)
		}
	}
	leader, late := NewSession(base), NewSession(base)
	batch := toBatch(followBatches(5, 3)[0])
	_ = leader.PushBatch(batch, 0, batch.Len())
	if late.Follow(leader) {
		t.Error("a session at another point of the stream followed")
	}
	_ = late.PushBatch(batch, 0, batch.Len())
	batch.Release()
	if !late.Follow(leader) {
		t.Error("a session at the leader's point of the stream refused to follow")
	}
	if leader.Follow(late) || NewSession(base).Follow(late) {
		t.Error("a leader followed, or a follower led")
	}
}
