package server

import (
	"slices"
	"time"

	"streamapprox/internal/query"
)

// The merger fires a query's served windows from its shards' panes.
// Shards own disjoint partitions, so their panes of one slide summarise
// disjoint parts of it, and a window is one Combine over every shard's
// panes of its slides, through the query's one query.Windows: the
// algebra one session applies across strata (§3.3, Eqs. 2–9). A shard
// hands over each pane with its event-time watermark once that reaches
// the slide's end, so a window fires once the lowest shard watermark is
// at or past its end; idle partitions get there by adopting their peers'
// marks.

// firedWindow is a merged window and the wall-clock age of its first pane.
type firedWindow struct {
	result  MergedWindow
	latency time.Duration
}

// slide is one slide's panes as the shards hand them over.
type slide struct {
	start   time.Time
	panes   []shardPane // by shard
	firstAt time.Time   // wall clock of the first pane
}

// shardPane is one shard's pane of a slide, kept by value: ok is false
// while the shard has handed none.
type shardPane struct {
	sum query.Summary
	ok  bool
}

// merger is the per-query fan-in. It is not safe for concurrent use;
// the job serializes access under its own lock.
type merger struct {
	q       query.Query
	conf    string // the served confidence level
	slide   time.Duration
	windows query.Windows // the complete slides' panes, in shard order
	// slides are the slides with a pane that some window still to fire
	// covers, by start; those starting before done are complete, their
	// panes in windows.
	slides []slide
	done   time.Time
	marks  []time.Time   // per shard: the start of the slide its event-time watermark is in
	out    []firedWindow // backs the slices advance returns
	seen   []bool        // scratch: the shards a window has seen
	// free holds the pane tables of dropped slides for new ones, never
	// more than the merger held at once: no window covers them, and a
	// checkpoint copies what it captures.
	free [][]shardPane
}

func newMerger(spec *Spec, shards int) *merger {
	return &merger{
		q:       spec.combiner(),
		conf:    spec.level().String(),
		slide:   spec.Slide,
		windows: query.NewWindows(spec.Window, spec.Slide),
		marks:   make([]time.Time, shards),
		seen:    make([]bool, shards),
	}
}

// bySlideStart orders slides by start.
func bySlideStart(s slide, start time.Time) int { return s.start.Compare(start) }

// add files one shard's pane. It reports false, keeping nothing, for a
// pane of a complete slide or one whose every window has been served.
func (m *merger) add(shard int, p query.Pane) bool {
	if p.Start.Before(m.done) || !p.Start.Add(m.windows.Size()).After(m.windows.Fired) {
		return false
	}
	i, ok := slices.BinarySearchFunc(m.slides, p.Start, bySlideStart)
	if !ok {
		s := slide{start: p.Start, firstAt: time.Now()}
		if n := len(m.free); n > 0 {
			s.panes, m.free = m.free[n-1], m.free[:n-1]
		} else {
			s.panes = make([]shardPane, len(m.marks))
		}
		m.slides = slices.Insert(m.slides, i, s)
	}
	m.slides[i].panes[shard] = shardPane{p.Summary, true}
	return true
}

// advance records that a shard's event-time watermark reached mark and
// returns the windows that fires, oldest first, valid until the next
// call. Windows end where slides start, so only the lowest watermark
// entering a later slide completes a slide or fires a window.
func (m *merger) advance(shard int, mark time.Time) []firedWindow {
	at := mark.Truncate(m.slide)
	if mark.IsZero() || !at.After(m.marks[shard]) {
		return nil
	}
	m.marks[shard] = at
	done := slices.MinFunc(m.marks, time.Time.Compare)
	if !done.After(m.done) {
		return nil
	}
	m.complete(done)
	m.windows.Fire(done, m.emit)
	return m.fired()
}

// flush completes every slide and fires every window that covers a pane:
// the end of a deleted query.
func (m *merger) flush() []firedWindow {
	done := m.done
	if n := len(m.slides); n > 0 && !m.slides[n-1].start.Before(done) {
		done = m.slides[n-1].start.Add(m.slide)
	}
	m.complete(done)
	m.windows.Flush(m.emit)
	return m.fired()
}

// complete hands the windows the panes of each slide starting before
// done, in order.
func (m *merger) complete(done time.Time) {
	for i := range m.slides {
		s := &m.slides[i]
		if !s.start.Before(done) {
			break
		}
		for _, p := range s.panes {
			if p.ok && !s.start.Before(m.done) {
				m.windows.Add(s.start, p.sum)
			}
		}
	}
	m.done = done
	m.out = m.out[:0]
}

// emit collects a window as it fires: its panes combined, counted over
// the shards with a pane in it, aged from its first pane.
func (m *merger) emit(start time.Time, panes []query.Pane) {
	fw := firedWindow{result: served(m.windows.Estimate(m.q, start, panes), m.conf)}
	now := time.Now()
	first := now
	i, _ := slices.BinarySearchFunc(m.slides, panes[0].Start, bySlideStart)
	for ; i < len(m.slides) && !m.slides[i].start.After(panes[len(panes)-1].Start); i++ {
		s := &m.slides[i]
		if s.firstAt.Before(first) {
			first = s.firstAt
		}
		for shard, p := range s.panes {
			if p.ok && !m.seen[shard] {
				m.seen[shard] = true
				fw.result.Shards++
			}
		}
	}
	clear(m.seen)
	fw.latency = now.Sub(first)
	m.out = append(m.out, fw)
}

// fired drops the slides no window still to fire covers and returns the
// windows the firing emitted.
func (m *merger) fired() []firedWindow {
	keep := m.done
	if len(m.windows.Panes) > 0 {
		keep = m.windows.Panes[0].Start
	}
	k := 0
	for ; k < len(m.slides) && m.slides[k].start.Before(keep); k++ {
		clear(m.slides[k].panes)
		m.free = append(m.free, m.slides[k].panes)
	}
	m.slides = slices.Delete(m.slides, 0, k)
	if len(m.out) == 0 {
		return nil
	}
	return m.out
}
