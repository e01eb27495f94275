package streamapprox

import (
	"encoding/json"
	"fmt"
	"time"

	"streamapprox/internal/pane"
)

// Snapshot serializes the session's full state — in-flight segment
// sampler with its skip chains, finished segments' summaries,
// adaptive-controller position, RNG —
// so processing can resume after a crash via RestoreSession. The session
// remains usable after Snapshot.
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
// pending windows, the in-flight segment's reservoirs, the watermark and
// the adaptive fraction are all recovered. Older snapshots are upgraded
// here, once: versions 1 and 2 keep each sampled row's value, and
// version 1, which carries each pending window's sub-samples, is
// summarised on load. A snapshot's targetLatencyNs, written by sessions
// that could cap a segment's sample at a latency target, is ignored: the
// session runs without the cap. A reservoir no sampler could have
// written (see sampling.ReservoirState.Validate) fails the restore.
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
	if s.windows.Panes, s.windows.Fired, err = st.Windows(s.q, s.cfg.WindowSize, s.cfg.WindowSlide); err != nil {
		return nil, fmt.Errorf("streamapprox: %w", err)
	}
	if len(st.Ready) > 0 {
		if err := json.Unmarshal(st.Ready, &s.ready); err != nil {
			return nil, fmt.Errorf("streamapprox: decode snapshot: %w", err)
		}
	}
	return s, nil
}
