package streamapprox

import (
	"encoding/json"
	"fmt"
	"time"

	"streamapprox/internal/pane"
)

// Snapshot serializes the session's full state — the in-flight
// segment's reservoirs with the previous segment's per-stratum arrival
// counts, the finished segments' summaries, the adaptive controller's
// position and the sampler's seed — so processing can resume after a
// crash via RestoreSession. Each count is held once, and nothing derived
// is: every segment's interval seed is the seed's at its start, and its
// budget the fraction of the counts before it. The session remains
// usable after Snapshot.
func (s *Session) Snapshot() ([]byte, error) {
	st := pane.Snapshot{
		Version:        pane.Version,
		Query:          int(s.cfg.Query),
		WindowSizeNS:   int64(s.cfg.WindowSize),
		WindowSlideNS:  int64(s.cfg.WindowSlide),
		Fraction:       s.cfg.Fraction,
		TargetError:    s.cfg.TargetError,
		Confidence:     int(s.cfg.Confidence),
		HistogramEdges: s.cfg.HistogramEdges,
		Seed:           s.cfg.Seed,
		State:          s.ps.State(),
		Panes:          s.windows.Panes,
		Fired:          s.windows.Fired,
	}
	if len(s.ready) > 0 {
		ready, err := json.Marshal(s.ready)
		if err != nil {
			return nil, err
		}
		st.Ready = ready
	}
	return json.Marshal(st)
}

// RestoreSession rebuilds a session from a Snapshot. The restored
// session continues the event-time stream where the snapshot left off:
// pending windows, the in-flight segment's reservoirs and history, the
// watermark and the adaptive fraction are all recovered, and the
// interval seed derived. It reads the current snapshot version and the
// one before it (see pane.Decode); an older snapshot is refused. A
// reservoir no sampler could have written (see
// sampling.ReservoirState.Validate) fails the restore.
func RestoreSession(data []byte) (*Session, error) {
	st, err := pane.Decode(data)
	if err != nil {
		return nil, fmt.Errorf("streamapprox: %w", err)
	}
	s := NewSession(SessionConfig{
		Query:          Query(st.Query),
		WindowSize:     time.Duration(st.WindowSizeNS),
		WindowSlide:    time.Duration(st.WindowSlideNS),
		Fraction:       st.Fraction,
		TargetError:    st.TargetError,
		Confidence:     Confidence(st.Confidence),
		HistogramEdges: st.HistogramEdges,
		Seed:           st.Seed,
	})
	if s.ps, err = st.State.Restore(s.cfg.WindowSlide, s.cfg.Fraction); err != nil {
		return nil, fmt.Errorf("streamapprox: %w", err)
	}
	if st.TargetError > 0 {
		// Resume the controller from its snapshot position.
		s.setController(st.State.Fraction)
	}
	if s.windows.Panes, s.windows.Fired, err = st.Windows(s.q); err != nil {
		return nil, fmt.Errorf("streamapprox: %w", err)
	}
	if len(st.Ready) > 0 {
		if err := json.Unmarshal(st.Ready, &s.ready); err != nil {
			return nil, fmt.Errorf("streamapprox: decode snapshot: %w", err)
		}
	}
	return s, nil
}
