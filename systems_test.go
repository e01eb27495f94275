package streamapprox

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"slices"
	"testing"
	"time"

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

// evaluatedSystem is one of the paper's six systems as a Run
// configuration; Exact is the one with no engine.
type evaluatedSystem struct {
	name    string
	engine  Engine
	sampler Sampler
}

var evaluatedSystems = []evaluatedSystem{
	{"spark-streamapprox", Batched, OASRS},
	{"flink-streamapprox", Pipelined, OASRS},
	{"spark-srs", Batched, SimpleRandom},
	{"spark-sts", Batched, Stratified},
	{"native-spark", Batched, None},
	{"native-flink", Pipelined, None},
	{"exact", 0, 0},
}

// windowsOf runs sys (Exact for "exact") and returns its windows.
func windowsOf(t testing.TB, sys evaluatedSystem, cfg Config, events []Event) []WindowResult {
	t.Helper()
	if sys.engine == 0 {
		out, err := Exact(cfg, events)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	cfg.Engine, cfg.Sampler = sys.engine, sys.sampler
	rep, err := Run(cfg, events)
	if err != nil {
		t.Fatal(err)
	}
	return rep.Results
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
					Fraction: 0.3, Query: q.query, Workers: 4, WindowSize: size, WindowSlide: 5 * time.Second,
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
