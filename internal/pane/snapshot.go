package pane

import (
	"encoding/json"
	"fmt"
	"sort"
	"time"

	"streamapprox/internal/query"
	"streamapprox/internal/sampling"
	"streamapprox/internal/stream"
	"streamapprox/internal/xrand"
)

// State is a Sampler's serialized form: its random state, the fraction in
// force, the current segment with this and the previous segment's arrival
// counts, the watermark, the late count and the OASRS sampler with its
// skip chains.
type State struct {
	RNG       xrand.State          `json:"rng"`
	Fraction  float64              `json:"controllerFraction"`
	SegStart  time.Time            `json:"segStart"`
	SegCount  int                  `json:"segCount"`
	LastCount int                  `json:"lastCount"`
	Watermark time.Time            `json:"watermark"`
	Late      int64                `json:"late"`
	Sampler   *sampling.OASRSState `json:"sampler,omitempty"`
}

// State captures the sampler's state.
func (p *Sampler) State() State {
	st := State{
		RNG:       p.rng.State(),
		Fraction:  p.fraction,
		SegStart:  stream.TimeFromNanos(p.segStart),
		SegCount:  p.segCount,
		LastCount: p.lastCount,
		Watermark: stream.TimeFromNanos(p.wm),
		Late:      p.late,
	}
	if p.oasrs != nil {
		o := p.oasrs.State()
		st.Sampler = &o
	}
	return st
}

// Restore rebuilds the Sampler the state was captured from, cutting
// segments of slide and sampling at fraction. A segment or watermark
// outside the unix-nano range, a segment start no cut makes, or a
// reservoir no sampler could have written (see
// sampling.ReservoirState.Validate) fails it.
func (st *State) Restore(slide time.Duration, fraction float64) (*Sampler, error) {
	p := NewSampler(slide, fraction, 1)
	p.rng.SetState(st.RNG)
	seg, okSeg := stream.UnixNanos(st.SegStart)
	wm, okWM := stream.UnixNanos(st.Watermark)
	if cut, ok := p.SegmentOf(seg); !okSeg || !okWM || !ok || cut != seg {
		return nil, fmt.Errorf("snapshot segment %v or watermark %v outside the unix-nano range", st.SegStart, st.Watermark)
	}
	p.setSegment(seg)
	p.segCount, p.lastCount, p.wm, p.late = st.SegCount, st.LastCount, wm, st.Late
	if st.Sampler != nil {
		for key, rs := range st.Sampler.Reservoirs {
			if err := rs.Validate(); err != nil {
				return nil, fmt.Errorf("reservoir %q: %w", key, err)
			}
		}
		p.oasrs = sampling.RestoreOASRS(*st.Sampler, nil, p.rng)
	}
	return p, nil
}

// Snapshot is a session's serialized form, versioned so the format can
// evolve: the configuration, the Sampler's State, and the finished
// segments' panes with the windows' completeness mark. A library Session
// writes it with its ready windows (Ready, which this package does not
// read); a served shard writes it with neither panes nor windows, its
// panes being its merger's.
type Snapshot struct {
	Version int `json:"version"`

	Query          int       `json:"query"` // streamapprox.Query
	WindowSizeNS   int64     `json:"windowSizeNs"`
	WindowSlideNS  int64     `json:"windowSlideNs"`
	Fraction       float64   `json:"fraction"`
	TargetError    float64   `json:"targetError"`
	Confidence     int       `json:"confidence"` // streamapprox.Confidence
	HistogramEdges []float64 `json:"histogramEdges,omitempty"`
	Seed           uint64    `json:"seed"`
	State

	// Version 2 on: the finished segments' summaries and the
	// completeness mark (see query.Windows).
	Panes []query.Pane `json:"panes,omitempty"`
	Fired time.Time    `json:"fired"`
	// Version 1, read only: every unfired window's sub-samples, keyed by
	// window start.
	Pending map[string]pendingSample `json:"pending,omitempty"`

	Ready json.RawMessage `json:"ready,omitempty"`
}

// pendingSample is a version-1 window's accumulated sub-samples.
type pendingSample struct {
	Strata []sampling.StratumSample `json:"strata"`
}

// Version 3 writes every sample as a value column ("values"). Versions 1
// and 2 wrote {stratum, value, time} rows ("items").
const Version = 3

// Decode reads a snapshot of any version. Older snapshots are upgraded
// here, once: versions 1 and 2 keep each sampled row's value (see
// Snapshot.Windows for version 1's pending windows). A snapshot's
// targetLatencyNs, written by sessions that could cap a segment's sample
// at a latency target, is ignored.
func Decode(data []byte) (*Snapshot, error) {
	var st Snapshot
	if err := json.Unmarshal(data, &st); err != nil {
		return nil, fmt.Errorf("decode snapshot: %w", err)
	}
	if st.Version < 1 || st.Version > Version {
		return nil, fmt.Errorf("unsupported snapshot version %d", st.Version)
	}
	if st.Version < 3 {
		if err := upgradeRows(data, &st); err != nil {
			return nil, err
		}
	}
	return &st, nil
}

// Windows returns the snapshot's finished panes, summarised through q, and
// the fired mark of its windows of size and slide. A version-1 snapshot's
// pending windows are summarised here (see adoptV1Pending); a histogram
// pane whose bucket counts do not match its strata fails.
func (st *Snapshot) Windows(q query.Query, size, slide time.Duration) ([]query.Pane, time.Time, error) {
	if st.Version == 1 {
		return adoptV1Pending(st.Pending, q, size, slide)
	}
	if h, ok := q.(*query.Histogram); ok {
		for i := range st.Panes {
			if !h.Fits(&st.Panes[i].Summary) {
				return nil, time.Time{}, fmt.Errorf("pane %s: bucket counts do not match its strata",
					st.Panes[i].Start.Format(time.RFC3339Nano))
			}
		}
	}
	return st.Panes, st.Fired, nil
}

// adoptV1Pending rebuilds the panes from a version-1 snapshot's pending
// windows. Every pending window covered all finished segments from its
// start on, in time order, so each window's strata end with the next
// window's: what it has beyond them is the segment it starts at (empty
// when no event fell there). The windows before the earliest pending one
// had all fired.
func adoptV1Pending(pending map[string]pendingSample, q query.Query, size, slide time.Duration) ([]query.Pane, time.Time, error) {
	type window struct {
		start  time.Time
		strata []sampling.StratumSample
	}
	wins := make([]window, 0, len(pending))
	for key, ps := range pending {
		start, err := time.Parse(time.RFC3339Nano, key)
		if err != nil {
			return nil, time.Time{}, fmt.Errorf("bad pending-window key %q: %w", key, err)
		}
		wins = append(wins, window{start, ps.Strata})
	}
	if len(wins) == 0 {
		return nil, time.Time{}, nil
	}
	sort.Slice(wins, func(i, j int) bool { return wins[i].start.Before(wins[j].start) })
	panes := make([]query.Pane, 0, len(wins))
	for i, w := range wins {
		own := len(w.strata)
		if i+1 < len(wins) {
			own -= len(wins[i+1].strata)
		}
		if own < 0 {
			return nil, time.Time{}, fmt.Errorf("pending window %s holds fewer strata than its successor",
				w.start.Format(time.RFC3339Nano))
		}
		panes = append(panes, query.Pane{Start: w.start, Summary: q.Summarize(&sampling.Sample{Strata: w.strata[:own]})})
	}
	return panes, wins[0].start.Add(size - slide), nil
}

// legacyRows is what a version-1 or -2 snapshot holds that Snapshot no
// longer decodes: the sampled rows, of which only the value was ever
// read. Everything else in those snapshots still decodes as is.
type legacyRows struct {
	Sampler *struct {
		Reservoirs map[string]legacyItems `json:"reservoirs"`
	} `json:"sampler"`
	Pending map[string]struct {
		Strata []legacyItems `json:"strata"`
	} `json:"pending"`
}

type legacyItems struct {
	Items []struct {
		Value float64 `json:"value"`
	} `json:"items"`
}

func (l legacyItems) values() []float64 {
	vals := make([]float64, len(l.Items))
	for i, it := range l.Items {
		vals[i] = it.Value
	}
	return vals
}

// upgradeRows fills the value columns of a version-1 or -2 state from
// the snapshot's rows, in row order.
func upgradeRows(data []byte, st *Snapshot) error {
	var rows legacyRows
	if err := json.Unmarshal(data, &rows); err != nil {
		return fmt.Errorf("decode snapshot rows: %w", err)
	}
	if st.Sampler != nil && rows.Sampler != nil {
		for key, res := range st.Sampler.Reservoirs {
			res.Values = rows.Sampler.Reservoirs[key].values()
			st.Sampler.Reservoirs[key] = res
		}
	}
	for key, ps := range st.Pending {
		legacy := rows.Pending[key].Strata
		if len(legacy) != len(ps.Strata) {
			return fmt.Errorf("pending window %s: rows do not match its strata", key)
		}
		for i := range ps.Strata {
			ps.Strata[i].Values = legacy[i].values()
		}
	}
	return nil
}
