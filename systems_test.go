package streamapprox

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"slices"
	"testing"
	"time"

	"streamapprox/internal/core"
	"streamapprox/internal/workload"
	"streamapprox/internal/xrand"
)

// systemsFixture is testdata/systems_parent.json: the windows every
// evaluated system and Exact served over one stream, written by the build
// before the engines fired their windows from panes.
type systemsFixture struct {
	Cases []systemsCase `json:"cases"`
}

type systemsCase struct {
	System  string          `json:"system"`
	Query   string          `json:"query"`
	Window  string          `json:"window"`
	Windows []fixtureWindow `json:"windows"`
}

type fixtureWindow struct {
	Start   time.Time                  `json:"start"`
	End     time.Time                  `json:"end"`
	Items   int64                      `json:"items"`
	Sampled int                        `json:"sampled"`
	Overall fixtureEstimate            `json:"overall"`
	Groups  map[string]fixtureEstimate `json:"groups,omitempty"`
	Buckets []fixtureBucket            `json:"buckets,omitempty"`
}

type fixtureEstimate struct {
	Value float64 `json:"value"`
	Bound float64 `json:"bound"`
}

type fixtureBucket struct {
	Lo    float64         `json:"lo"`
	Hi    float64         `json:"hi"`
	Count fixtureEstimate `json:"count"`
}

// evaluatedSystem is one of the paper's six systems: run through Run
// when sampler names its sampler, through internal/core, as the figures
// run it, otherwise. Exact is the one with no system.
type evaluatedSystem struct {
	name    string
	sys     core.System
	sampler Sampler
}

var evaluatedSystems = []evaluatedSystem{
	{"spark-streamapprox", core.SparkApprox, OASRS},
	{"flink-streamapprox", core.FlinkApprox, 0},
	{"spark-srs", core.SparkSRS, SimpleRandom},
	{"spark-sts", core.SparkSTS, 0},
	{"native-spark", core.NativeSpark, 0},
	{"native-flink", core.NativeFlink, 0},
	{"exact", 0, 0},
}

// windowsOf runs sys (Exact for "exact") and returns its windows.
func windowsOf(t testing.TB, sys evaluatedSystem, cfg Config, events []Event) []WindowResult {
	t.Helper()
	switch {
	case sys.sys == 0:
		out, err := Exact(cfg, events)
		if err != nil {
			t.Fatal(err)
		}
		return out
	case sys.sampler != 0:
		cfg.Sampler = sys.sampler
		rep, err := Run(cfg, events)
		if err != nil {
			t.Fatal(err)
		}
		return rep.Results
	}
	in, err := toInternal(events)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := core.Run(cfg.coreConfig(sys.sys), in)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]WindowResult, len(stats.Results))
	for i, w := range stats.Results {
		out[i] = windowResult(w)
	}
	return out
}

// systemsStream is 30 s of the §5.1 Gaussian sub-streams.
func systemsStream() []Event {
	gen := workload.Generate(xrand.New(31), 30*time.Second, workload.PaperGaussian(300, 200, 100)...)
	events := make([]Event, len(gen))
	for i, e := range gen {
		events[i] = Event(e)
	}
	return events
}

// systemsCases runs every evaluated system over systemsStream for Sum,
// GroupBySum and Histogram at 10 s / 5 s and 20 s / 5 s windows.
func systemsCases(t testing.TB) []systemsCase {
	events := systemsStream()
	var out []systemsCase
	for _, sys := range evaluatedSystems {
		for _, q := range []struct {
			name  string
			query Query
		}{{"sum", Sum}, {"groupby-sum", GroupBySum}, {"histogram", Histogram}} {
			for _, size := range []time.Duration{10 * time.Second, 20 * time.Second} {
				cfg := Config{
					Fraction: 0.3, Query: q.query, WindowSize: size, WindowSlide: 5 * time.Second,
					HistogramEdges: []float64{0, 20, 900, 1100, 9000, 11000}, Seed: 17,
				}
				c := systemsCase{System: sys.name, Query: q.name, Window: size.String()}
				for _, w := range windowsOf(t, sys, cfg, events) {
					fw := fixtureWindow{Start: w.Start, End: w.End, Items: w.Items, Sampled: w.Sampled,
						Overall: fixtureEstimate{w.Overall.Value, w.Overall.Bound}}
					for k, g := range w.Groups {
						if fw.Groups == nil {
							fw.Groups = make(map[string]fixtureEstimate)
						}
						fw.Groups[k] = fixtureEstimate{g.Value, g.Bound}
					}
					for _, b := range w.Buckets {
						fw.Buckets = append(fw.Buckets, fixtureBucket{b.Lo, b.Hi, fixtureEstimate{b.Count.Value, b.Count.Bound}})
					}
					c.Windows = append(c.Windows, fw)
				}
				out = append(out, c)
			}
		}
	}
	return out
}

// TestSystemsMatchParent: every system serves the windows the build
// before panes served: the same spans, counts, group keys and bucket
// edges exactly, every value and bound to 1e-9 relative (that build
// merged replica samples in the order the replicas finished, so it varies
// in the last bits itself).
func TestSystemsMatchParent(t *testing.T) {
	raw, err := os.ReadFile("testdata/systems_parent.json")
	if err != nil {
		t.Fatal(err)
	}
	var want systemsFixture
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	got := systemsCases(t)
	if len(got) != len(want.Cases) {
		t.Fatalf("%d cases, fixture has %d", len(got), len(want.Cases))
	}
	near := func(a, b fixtureEstimate) bool {
		close := func(x, y float64) bool { return x == y || math.Abs(x-y) <= 1e-9*math.Max(math.Abs(x), math.Abs(y)) }
		return close(a.Value, b.Value) && close(a.Bound, b.Bound)
	}
	for i, g := range got {
		w := want.Cases[i]
		label := fmt.Sprintf("%s %s %s", g.System, g.Query, g.Window)
		if g.System != w.System || g.Query != w.Query || g.Window != w.Window {
			t.Fatalf("case %d is %s, fixture has %s %s %s", i, label, w.System, w.Query, w.Window)
		}
		if len(g.Windows) != len(w.Windows) {
			t.Errorf("%s: %d windows, want %d", label, len(g.Windows), len(w.Windows))
			continue
		}
		for j, gw := range g.Windows {
			ww := w.Windows[j]
			if !gw.Start.Equal(ww.Start) || !gw.End.Equal(ww.End) || gw.Items != ww.Items || gw.Sampled != ww.Sampled {
				t.Errorf("%s window %d: [%v, %v) items %d sampled %d, want [%v, %v) items %d sampled %d", label, j,
					gw.Start, gw.End, gw.Items, gw.Sampled, ww.Start, ww.End, ww.Items, ww.Sampled)
			}
			if !near(gw.Overall, ww.Overall) {
				t.Errorf("%s window %d: overall %+v, want %+v", label, j, gw.Overall, ww.Overall)
			}
			if len(gw.Groups) != len(ww.Groups) {
				t.Errorf("%s window %d: groups %v, want %v", label, j, gw.Groups, ww.Groups)
			}
			for k, wg := range ww.Groups {
				if gg, ok := gw.Groups[k]; !ok || !near(gg, wg) {
					t.Errorf("%s window %d group %q: %+v, want %+v", label, j, k, gg, wg)
				}
			}
			if !slices.EqualFunc(gw.Buckets, ww.Buckets, func(a, b fixtureBucket) bool {
				return a.Lo == b.Lo && a.Hi == b.Hi && near(a.Count, b.Count)
			}) {
				t.Errorf("%s window %d: buckets %+v, want %+v", label, j, gw.Buckets, ww.Buckets)
			}
		}
	}
}

// TestNoSystemWindowsAnEventTimeGap: over a stream with gaps in event
// time, every system serves Exact's windows — the same starts and item
// counts — for Sum and Mean, and none over a gap, short or long.
func TestNoSystemWindowsAnEventTimeGap(t *testing.T) {
	base := time.Date(2017, 12, 11, 0, 0, 0, 0, time.UTC)
	var events []Event
	for _, burst := range []time.Duration{0, 30 * time.Second, 100 * time.Second} {
		for i := 0; i < 1000; i++ { // 10 s at 100 events/s
			events = append(events, Event{Stratum: "s", Value: float64(1 + i%10), Time: base.Add(burst + time.Duration(i)*10*time.Millisecond)})
		}
	}
	for _, q := range []Query{Sum, Mean} {
		cfg := Config{Query: q, WindowSize: 10 * time.Second, WindowSlide: 5 * time.Second, Seed: 3}
		exact := windowsOf(t, evaluatedSystems[len(evaluatedSystems)-1], cfg, events)
		for _, sys := range evaluatedSystems {
			got := windowsOf(t, sys, cfg, events)
			if len(got) != len(exact) {
				t.Errorf("%s query %d: %d windows, Exact serves %d", sys.name, q, len(got), len(exact))
				continue
			}
			for i, w := range got {
				if !w.Start.Equal(exact[i].Start) || w.Items != exact[i].Items {
					t.Errorf("%s query %d window %d: [%v) items %d, Exact [%v) items %d",
						sys.name, q, i, w.Start, w.Items, exact[i].Start, exact[i].Items)
				}
			}
		}
	}
}
