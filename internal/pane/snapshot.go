package pane

import (
	"encoding/json"
	"fmt"
	"time"

	"streamapprox/internal/query"
	"streamapprox/internal/sampling"
	"streamapprox/internal/stream"
)

// State is a Sampler's serialized form: its seed, the fraction in force,
// the current segment, the watermark, the late count and the OASRS
// sampler's reservoirs with the previous segment's arrival counts. Each
// is held once. What derives from them is not state: a segment's
// interval seed is the seed's at its start, and this and the previous
// segment's arrival counts are the OASRS sampler's.
type State struct {
	SamplerSeed uint64               `json:"samplerSeed"`
	Fraction    float64              `json:"controllerFraction"`
	SegStart    time.Time            `json:"segStart"`
	Watermark   time.Time            `json:"watermark"`
	Late        int64                `json:"late"`
	Sampler     *sampling.OASRSState `json:"sampler,omitempty"`
}

// State captures the sampler's state.
func (p *Sampler) State() State {
	st := State{
		SamplerSeed: p.seed,
		Fraction:    p.fraction,
		SegStart:    stream.TimeFromNanos(p.segStart),
		Watermark:   stream.TimeFromNanos(p.wm),
		Late:        p.late,
	}
	if p.oasrs != nil {
		o := p.oasrs.State()
		st.Sampler = &o
	}
	return st
}

// Restore rebuilds the Sampler the state was captured from, cutting
// segments of slide and sampling at fraction, its OASRS sampler keyed by
// the segment's interval seed. A segment or watermark outside the
// unix-nano range, a segment start no cut makes, or a reservoir no
// sampler could have written (see sampling.ReservoirState.Validate)
// fails it.
func (st *State) Restore(slide time.Duration, fraction float64) (*Sampler, error) {
	p := NewSampler(slide, fraction, st.SamplerSeed)
	seg, okSeg := stream.UnixNanos(st.SegStart)
	wm, okWM := stream.UnixNanos(st.Watermark)
	if cut, ok := p.SegmentOf(seg); !okSeg || !okWM || !ok || cut != seg {
		return nil, fmt.Errorf("snapshot segment %v or watermark %v outside the unix-nano range", st.SegStart, st.Watermark)
	}
	p.setSegment(seg)
	p.wm, p.late = wm, st.Late
	if st.Sampler != nil {
		for key, rs := range st.Sampler.Reservoirs {
			if err := rs.Validate(); err != nil {
				return nil, fmt.Errorf("reservoir %q: %w", key, err)
			}
		}
		p.oasrs = sampling.RestoreOASRS(*st.Sampler, p.segmentSeed(seg))
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

// Version 5 holds each count once, in the OASRS reservoirs and their
// history. Version 4 also wrote the Sampler's arrival counts ("segCount",
// "lastCount"), the OASRS sampler's stratum count and order ("expected",
// "order") and its interval seed ("intervalSeed"): Decode ignores them,
// and Restore derives each.
const Version = 5

// Decode reads a snapshot of the current version or the one before it,
// and refuses any other.
func Decode(data []byte) (*Snapshot, error) {
	var st Snapshot
	if err := json.Unmarshal(data, &st); err != nil {
		return nil, fmt.Errorf("decode snapshot: %w", err)
	}
	if st.Version != Version-1 && st.Version != Version {
		return nil, fmt.Errorf("session snapshot version %d: this build reads versions %d and %d; commit bf6c4fd is the last to upgrade version 3, commit b228946 version 2, and commit 1338931 version 1",
			st.Version, Version-1, Version)
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
