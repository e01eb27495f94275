package streamapprox

import (
	"encoding/json"
	"fmt"
	"sort"
	"time"

	"streamapprox/internal/adaptive"
	"streamapprox/internal/query"
	"streamapprox/internal/sampling"
	"streamapprox/internal/xrand"
)

// sessionState is the serialized form of a Session, versioned so the
// format can evolve.
type sessionState struct {
	Version int `json:"version"`

	Query          Query       `json:"query"`
	WindowSizeNS   int64       `json:"windowSizeNs"`
	WindowSlideNS  int64       `json:"windowSlideNs"`
	Fraction       float64     `json:"fraction"`
	TargetError    float64     `json:"targetError"`
	Confidence     Confidence  `json:"confidence"`
	HistogramEdges []float64   `json:"histogramEdges,omitempty"`
	Seed           uint64      `json:"seed"`
	RNG            xrand.State `json:"rng"`
	ControllerFrac float64     `json:"controllerFraction"`

	SegStart  time.Time            `json:"segStart"`
	SegCount  int                  `json:"segCount"`
	LastCount int                  `json:"lastCount"`
	Watermark time.Time            `json:"watermark"`
	Late      int64                `json:"late"`
	Sampler   *sampling.OASRSState `json:"sampler,omitempty"`

	// Version 2 on: the finished segments' summaries and the
	// completeness mark (see query.Windows).
	Panes []query.Pane `json:"panes,omitempty"`
	Fired time.Time    `json:"fired"`
	// Version 1, read only: every unfired window's sub-samples, keyed by
	// window start.
	Pending map[string]pendingSample `json:"pending,omitempty"`

	Ready []WindowResult `json:"ready,omitempty"`
}

// pendingSample is a version-1 window's accumulated sub-samples.
type pendingSample struct {
	Strata []sampling.StratumSample `json:"strata"`
}

// snapshotVersion 3 writes every sample as a value column ("values").
// Versions 1 and 2 wrote {stratum, value, time} rows ("items").
const snapshotVersion = 3

// legacyRows is what a version-1 or -2 snapshot holds that sessionState
// no longer decodes: the sampled rows, of which only the value was ever
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
func upgradeRows(data []byte, st *sessionState) error {
	var rows legacyRows
	if err := json.Unmarshal(data, &rows); err != nil {
		return fmt.Errorf("streamapprox: decode snapshot rows: %w", err)
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
			return fmt.Errorf("streamapprox: pending window %s: rows do not match its strata", key)
		}
		for i := range ps.Strata {
			ps.Strata[i].Values = legacy[i].values()
		}
	}
	return nil
}

// Snapshot serializes the session's full state — in-flight segment
// sampler with its skip chains, finished segments' summaries,
// adaptive-controller position, RNG —
// so processing can resume after a crash via RestoreSession. The session
// remains usable after Snapshot. A follower (see Follow) writes the
// private session it would be with a copy of its leader's sampler and
// random state.
func (s *Session) Snapshot() ([]byte, error) {
	src := s // whose sampler and random state s samples with
	if s.leader != nil {
		src = s.leader
	}
	st := sessionState{
		Version:        snapshotVersion,
		Query:          s.cfg.Query,
		WindowSizeNS:   int64(s.cfg.WindowSize),
		WindowSlideNS:  int64(s.cfg.WindowSlide),
		Fraction:       s.cfg.Fraction,
		TargetError:    s.cfg.TargetError,
		Confidence:     s.cfg.Confidence,
		HistogramEdges: s.cfg.HistogramEdges,
		Seed:           s.cfg.Seed,
		RNG:            src.rng.State(),
		ControllerFrac: s.Fraction(),
		SegStart:       s.segStart,
		SegCount:       s.segCount,
		LastCount:      s.lastCount,
		Watermark:      s.watermark,
		Late:           s.late,
		Panes:          s.windows.Panes,
		Fired:          s.windows.Fired,
		Ready:          s.ready,
	}
	if src.sampler != nil {
		samplerState := src.sampler.State()
		st.Sampler = &samplerState
	}
	return json.Marshal(st)
}

// RestoreSession rebuilds a session from a Snapshot. The restored
// session continues the event-time stream where the snapshot left off:
// pending windows, the in-flight segment's reservoirs, the watermark and
// the adaptive fraction are all recovered. Older snapshots are upgraded
// here, once: versions 1 and 2 keep each sampled row's value, and
// version 1, which carries each pending window's sub-samples, is
// summarised on load. A snapshot's targetLatencyNs, written by sessions
// that could cap a segment's sample at a latency target, is ignored: the
// session runs without the cap. A reservoir no sampler could have
// written (see sampling.ReservoirState.Validate) fails the restore.
func RestoreSession(data []byte) (*Session, error) {
	var st sessionState
	if err := json.Unmarshal(data, &st); err != nil {
		return nil, fmt.Errorf("streamapprox: decode snapshot: %w", err)
	}
	if st.Version < 1 || st.Version > snapshotVersion {
		return nil, fmt.Errorf("streamapprox: unsupported snapshot version %d", st.Version)
	}
	if st.Version < 3 {
		if err := upgradeRows(data, &st); err != nil {
			return nil, err
		}
	}
	s := NewSession(SessionConfig{
		Query:          st.Query,
		WindowSize:     time.Duration(st.WindowSizeNS),
		WindowSlide:    time.Duration(st.WindowSlideNS),
		Fraction:       st.Fraction,
		TargetError:    st.TargetError,
		Confidence:     st.Confidence,
		HistogramEdges: st.HistogramEdges,
		Seed:           st.Seed,
	})
	s.rng.SetState(st.RNG)
	if st.TargetError > 0 {
		// Resume the controller from its snapshot position.
		s.controller = adaptive.NewController(st.TargetError, st.ControllerFrac)
	}
	s.segStart = st.SegStart
	s.cacheSegBounds()
	s.segCount = st.SegCount
	s.lastCount = st.LastCount
	s.watermark = st.Watermark
	s.late = st.Late
	s.ready = st.Ready
	if st.Sampler != nil {
		for key, rs := range st.Sampler.Reservoirs {
			if err := rs.Validate(); err != nil {
				return nil, fmt.Errorf("streamapprox: reservoir %q: %w", key, err)
			}
		}
		s.sampler = sampling.RestoreOASRS(*st.Sampler, nil, s.rng)
	}
	if st.Version == 1 {
		if err := s.adoptV1Pending(st.Pending); err != nil {
			return nil, err
		}
		return s, nil
	}
	if h, ok := s.q.(*query.Histogram); ok {
		for i := range st.Panes {
			if !h.Fits(&st.Panes[i].Summary) {
				return nil, fmt.Errorf("streamapprox: pane %s: bucket counts do not match its strata",
					st.Panes[i].Start.Format(time.RFC3339Nano))
			}
		}
	}
	s.windows.Panes, s.windows.Fired = st.Panes, st.Fired
	return s, nil
}

// adoptV1Pending rebuilds the panes from a version-1 snapshot's pending
// windows. Every pending window covered all finished segments from its
// start on, in time order, so each window's strata end with the next
// window's: what it has beyond them is the segment it starts at (empty
// when no event fell there). The windows before the earliest pending one
// had all fired.
func (s *Session) adoptV1Pending(pending map[string]pendingSample) error {
	type window struct {
		start  time.Time
		strata []sampling.StratumSample
	}
	wins := make([]window, 0, len(pending))
	for key, ps := range pending {
		start, err := time.Parse(time.RFC3339Nano, key)
		if err != nil {
			return fmt.Errorf("streamapprox: bad pending-window key %q: %w", key, err)
		}
		wins = append(wins, window{start, ps.Strata})
	}
	if len(wins) == 0 {
		return nil
	}
	sort.Slice(wins, func(i, j int) bool { return wins[i].start.Before(wins[j].start) })
	for i, w := range wins {
		own := len(w.strata)
		if i+1 < len(wins) {
			own -= len(wins[i+1].strata)
		}
		if own < 0 {
			return fmt.Errorf("streamapprox: pending window %s holds fewer strata than its successor",
				w.start.Format(time.RFC3339Nano))
		}
		sum := s.q.Summarize(&sampling.Sample{Strata: w.strata[:own]})
		s.windows.Add(w.start, sum)
	}
	s.windows.Fired = wins[0].start.Add(s.cfg.WindowSize - s.cfg.WindowSlide)
	return nil
}
