package query

import (
	"testing"
	"time"

	"streamapprox/internal/estimate"
)

var windowBase = time.Date(2017, 12, 11, 0, 0, 0, 0, time.UTC)

func at(offset time.Duration) time.Time { return windowBase.Add(offset) }

// countPane is a summary of n exact items of one stratum.
func countPane(n int64) Summary {
	return Summary{Strata: []StratumSummary{{Stratum: "s", Moments: estimate.Moments{Count: n, N: n, Weight: 1}}}}
}

// fired is one emitted window: its span and the items its panes count.
type fired struct {
	start, end time.Time
	items      int64
}

// collect returns an emit that records windows of w into out.
func collect(w *Windows, out *[]fired) func(time.Time, []Pane) {
	return func(start time.Time, panes []Pane) {
		f := fired{start: start, end: start.Add(w.Size())}
		for i := range panes {
			f.items += panes[i].Summary.TotalCount()
		}
		*out = append(*out, f)
	}
}

// windowsOfPane returns the windows a single pane at start joins.
func windowsOfPane(size, slide time.Duration, start time.Time) []fired {
	w := NewWindows(size, slide)
	w.Add(start, countPane(1))
	var out []fired
	w.Flush(collect(&w, &out))
	return out
}

func TestWindowsPaperConfig(t *testing.T) {
	// The paper's case-study config: w = 10s, δ = 5s -> each pane joins
	// exactly two windows.
	ws := windowsOfPane(10*time.Second, 5*time.Second, at(5*time.Second))
	if len(ws) != 2 {
		t.Fatalf("pane joined %d windows, want 2: %v", len(ws), ws)
	}
	if !ws[0].start.Equal(at(0)) || !ws[1].start.Equal(at(5*time.Second)) {
		t.Errorf("window starts = %v, %v", ws[0].start, ws[1].start)
	}
	for _, w := range ws {
		if w.end.Sub(w.start) != 10*time.Second || w.items != 1 {
			t.Errorf("window %v", w)
		}
	}
}

func TestWindowsTumbling(t *testing.T) {
	ws := windowsOfPane(10*time.Second, 10*time.Second, at(10*time.Second))
	if len(ws) != 1 || !ws[0].start.Equal(at(10*time.Second)) {
		t.Fatalf("tumbling pane joined %v, want [10s, 20s) only", ws)
	}
}

func TestWindowsBoundaryPane(t *testing.T) {
	// A pane starting on a window's end is not in that window.
	ws := windowsOfPane(10*time.Second, 5*time.Second, at(10*time.Second))
	if len(ws) != 2 {
		t.Fatalf("boundary pane joined %d windows, want 2", len(ws))
	}
	for _, w := range ws {
		if w.start.Equal(at(0)) {
			t.Error("pane at t=10s wrongly joined window [0,10)")
		}
	}
}

func TestPaneInAllItsWindows(t *testing.T) {
	// Each pane with w=20s, δ=5s joins 4 windows, earliest first.
	ws := windowsOfPane(20*time.Second, 5*time.Second, at(15*time.Second))
	if len(ws) != 4 {
		t.Fatalf("pane joined %d windows: %v", len(ws), ws)
	}
	for i := 1; i < len(ws); i++ {
		if !ws[i].start.After(ws[i-1].start) {
			t.Error("windows not earliest-first")
		}
	}
}

func TestNewWindowsRoundsSizeToSlides(t *testing.T) {
	for _, c := range []struct{ size, slide, want time.Duration }{
		{time.Second, 5 * time.Second, 5 * time.Second},
		{7 * time.Second, 5 * time.Second, 10 * time.Second},
		{10 * time.Second, 5 * time.Second, 10 * time.Second},
		{1001 * time.Millisecond, 250 * time.Millisecond, 1250 * time.Millisecond},
	} {
		w := NewWindows(c.size, c.slide)
		if got := w.Size(); got != c.want {
			t.Errorf("NewWindows(%v, %v).Size() = %v, want %v", c.size, c.slide, got, c.want)
		}
	}
}

func TestWindowsFireCompleted(t *testing.T) {
	w := NewWindows(10*time.Second, 5*time.Second)
	var out []fired
	for sec := 0; sec < 25; sec += 5 {
		w.Add(at(time.Duration(sec)*time.Second), countPane(5)) // one item a second
	}
	w.Fire(at(20*time.Second), collect(&w, &out))
	// Windows [-5,5) [0,10) [5,15) [10,20) are all complete by t=20.
	if len(out) != 4 {
		t.Fatalf("fired %d windows, want 4: %+v", len(out), out)
	}
	if !out[1].start.Equal(at(0)) || out[1].items != 10 {
		t.Errorf("second window %+v, want [0,10) with 10 items", out[1])
	}
	if len(w.Panes) != 2 {
		t.Errorf("%d panes left, want the two window [15, 25) still covers", len(w.Panes))
	}
}

func TestWindowsFireInOrder(t *testing.T) {
	w := NewWindows(10*time.Second, 5*time.Second)
	var out []fired
	emit := collect(&w, &out)
	for sec := 0; sec <= 60; sec += 5 {
		w.Add(at(time.Duration(sec)*time.Second), countPane(5))
		w.Fire(at(time.Duration(sec+3)*time.Second), emit)
	}
	w.Flush(emit)
	if len(out) != 14 {
		t.Errorf("fired %d windows, want 14", len(out))
	}
	for i := 1; i < len(out); i++ {
		if !out[i].start.Equal(out[i-1].start.Add(5 * time.Second)) {
			t.Fatalf("window %d starts %v after %v", i, out[i].start, out[i-1].start)
		}
	}
}

func TestWindowsFlush(t *testing.T) {
	w := NewWindows(10*time.Second, 5*time.Second)
	var out []fired
	w.Add(at(0), countPane(1))
	w.Flush(collect(&w, &out))
	if len(out) != 2 || out[0].items != 1 || out[1].items != 1 {
		t.Fatalf("Flush fired %+v, want both windows of the pane", out)
	}
	w.Flush(collect(&w, &out))
	if len(out) != 2 {
		t.Error("second Flush fired again")
	}
}
