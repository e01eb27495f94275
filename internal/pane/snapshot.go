package pane

import (
	"encoding/json"
	"fmt"
	"time"

	"streamapprox/internal/query"
	"streamapprox/internal/sampling"
	"streamapprox/internal/stream"
	"streamapprox/internal/xrand"
)

// State is a Sampler's serialized form: its random state, the fraction in
// force, the current segment with this and the previous segment's arrival
// counts, the watermark, the late count and the OASRS sampler with its
// interval seed and reservoirs.
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

	// The finished segments' summaries and the completeness mark (see
	// query.Windows).
	Panes []query.Pane `json:"panes,omitempty"`
	Fired time.Time    `json:"fired"`

	Ready json.RawMessage `json:"ready,omitempty"`
}

// Version 3 writes every sample as a value column ("values"). Version 2
// wrote {stratum, value, time} rows ("items").
const Version = 3

// Decode reads a snapshot of the current version or the one before it.
// A version-2 snapshot is upgraded here, once: each sampled row keeps its
// value. Any other version is refused. A snapshot's targetLatencyNs,
// written by sessions that could cap a segment's sample at a latency
// target, is ignored.
func Decode(data []byte) (*Snapshot, error) {
	var st Snapshot
	if err := json.Unmarshal(data, &st); err != nil {
		return nil, fmt.Errorf("decode snapshot: %w", err)
	}
	if st.Version != Version-1 && st.Version != Version {
		return nil, fmt.Errorf("session snapshot version %d: this build reads versions %d and %d; commit 1338931 is the last to upgrade an older one",
			st.Version, Version-1, Version)
	}
	if st.Version < Version {
		if err := upgradeRows(data, &st); err != nil {
			return nil, err
		}
	}
	return &st, nil
}

// Windows returns the snapshot's finished panes, summarised through q, and
// the fired mark of its windows. A histogram pane whose bucket counts do
// not match its strata fails.
func (st *Snapshot) Windows(q query.Query) ([]query.Pane, time.Time, error) {
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

// legacyRows is what a version-2 snapshot holds that Snapshot no longer
// decodes: its reservoirs' sampled rows, of which only the value was ever
// read. Everything else in it still decodes as is.
type legacyRows struct {
	Sampler *struct {
		Reservoirs map[string]struct {
			Items []struct {
				Value float64 `json:"value"`
			} `json:"items"`
		} `json:"reservoirs"`
	} `json:"sampler"`
}

// upgradeRows fills the value columns of a version-2 state's reservoirs
// from the snapshot's rows, in row order.
func upgradeRows(data []byte, st *Snapshot) error {
	var rows legacyRows
	if err := json.Unmarshal(data, &rows); err != nil {
		return fmt.Errorf("decode snapshot rows: %w", err)
	}
	if st.Sampler == nil || rows.Sampler == nil {
		return nil
	}
	for key, res := range st.Sampler.Reservoirs {
		items := rows.Sampler.Reservoirs[key].Items
		res.Values = make([]float64, len(items))
		for i, it := range items {
			res.Values[i] = it.Value
		}
		st.Sampler.Reservoirs[key] = res
	}
	return nil
}
