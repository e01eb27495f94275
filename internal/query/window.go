package query

import (
	"math"
	"time"
)

// Pane is one finished slide segment: its sample's summary.
type Pane struct {
	Start   time.Time `json:"start"`
	Summary Summary   `json:"summary"`
}

// Windows cuts the sliding windows of §2.2 from panes: a window of size
// w slides by δ, and each window is estimated by Combine over the panes
// it covers. Panes are added oldest first; a window fires once the caller
// knows no pane of it is still to come.
type Windows struct {
	size, slide time.Duration
	// Panes holds the finished segments some unfired window still
	// covers, oldest first (at most ⌈size/slide⌉ segments of them);
	// every window ending at or before Fired has been emitted.
	Panes []Pane
	Fired time.Time

	sums []Summary // Estimate's argument buffer
}

// Window is one fired window: its panes combined, and what they counted.
type Window struct {
	Start, End time.Time // the window is [Start, End)
	Result     Result
	Items      int64 // items observed in the window (ΣCi)
	Sampled    int   // items that reached the query (ΣYi)
}

// NewWindows returns the windows of the given size every slide. A size
// that is not a whole number of slides is rounded to one (see
// WholeSlides): a window is counted over whole slide segments, so that is
// the span it reports.
func NewWindows(size, slide time.Duration) Windows {
	return Windows{size: WholeSlides(size, slide), slide: slide}
}

// WholeSlides rounds size up to a whole number of slides, at least one.
// Where rounding up would pass the largest duration it rounds down
// instead, to the largest whole number of slides there is: below size.
func WholeSlides(size, slide time.Duration) time.Duration {
	n := size / slide
	if size%slide > 0 && n < math.MaxInt64/slide {
		n++
	}
	return max(n, 1) * slide
}

// Size returns the window size, a whole number of slides.
func (w *Windows) Size() time.Duration { return w.size }

// Add appends a pane; start is its segment's, at or after the last
// pane's.
func (w *Windows) Add(start time.Time, sum Summary) {
	w.Panes = append(w.Panes, Pane{Start: start, Summary: sum})
}

// Fire emits, in start order, every window that ends in (Fired, limit]
// and covers at least one pane, then drops the panes that no unfired
// window covers. emit gets the window's start and its panes, which are
// only valid until it returns.
func (w *Windows) Fire(limit time.Time, emit func(start time.Time, panes []Pane)) {
	if !limit.After(w.Fired) {
		return
	}
	size, slide := w.size, w.slide
	// A pane's earliest window starts this far before it: ⌈size/slide⌉-1
	// slides.
	back := (size - 1) / slide * slide
	var start time.Time
	for lo := 0; lo < len(w.Panes); {
		p := w.Panes[lo].Start
		if p.Before(start) {
			lo++
			continue
		}
		if first := p.Add(-back); first.After(start) {
			start = first // an event-time gap: the windows before cover no pane
		}
		end := start.Add(size)
		if end.After(limit) {
			break
		}
		if end.After(w.Fired) {
			hi := lo + 1
			for hi < len(w.Panes) && w.Panes[hi].Start.Before(end) {
				hi++
			}
			emit(start, w.Panes[lo:hi])
		}
		start = start.Add(slide)
	}
	w.Fired = limit
	done := 0
	for done < len(w.Panes) && !w.Panes[done].Start.Add(size).After(limit) {
		done++
	}
	if done > 0 {
		n := copy(w.Panes, w.Panes[done:])
		clear(w.Panes[n:])
		w.Panes = w.Panes[:n]
	}
}

// Estimate combines one window's panes, as Fire hands them to emit,
// through q.
func (w *Windows) Estimate(q Query, start time.Time, panes []Pane) Window {
	win := Window{Start: start, End: start.Add(w.size)}
	w.sums = w.sums[:0]
	for i := range panes {
		w.sums = append(w.sums, panes[i].Summary)
		win.Items += panes[i].Summary.TotalCount()
		win.Sampled += panes[i].Summary.SampledCount()
	}
	win.Result = q.Combine(w.sums)
	clear(w.sums)
	return win
}

// Flush fires every window that covers a pane: the end of the stream.
func (w *Windows) Flush(emit func(start time.Time, panes []Pane)) {
	if n := len(w.Panes); n > 0 {
		w.Fire(w.Panes[n-1].Start.Add(w.size), emit)
	}
}
