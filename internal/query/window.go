package query

import "time"

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
}

// NewWindows returns the windows of the given size every slide. A size
// that is not a whole number of slides is rounded up to one: a window is
// counted over whole slide segments, so that is the span it reports.
func NewWindows(size, slide time.Duration) Windows {
	return Windows{size: WholeSlides(size, slide), slide: slide}
}

// WholeSlides rounds size up to a whole number of slides, at least one.
func WholeSlides(size, slide time.Duration) time.Duration {
	return max((size+slide-1)/slide, 1) * slide
}

// Size returns the window size, a whole number of slides.
func (w *Windows) Size() time.Duration { return w.size }

// Add appends a pane; start is its segment's, at or after the last
// pane's.
func (w *Windows) Add(start time.Time, sum Summary) {
	w.Panes = append(w.Panes, Pane{Start: start, Summary: sum})
}

// Last returns the newest pane.
func (w *Windows) Last() *Pane { return &w.Panes[len(w.Panes)-1] }

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

// Flush fires every window that covers a pane: the end of the stream.
func (w *Windows) Flush(emit func(start time.Time, panes []Pane)) {
	if n := len(w.Panes); n > 0 {
		w.Fire(w.Panes[n-1].Start.Add(w.size), emit)
	}
}
