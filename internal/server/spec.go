package server

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"time"

	"streamapprox"
	"streamapprox/internal/estimate"
	"streamapprox/internal/pane"
	"streamapprox/internal/query"
)

// Spec is a registered query: the aggregate kind, the sliding window,
// and the sampling budget. It is the JSON body of POST /v1/queries and
// the unit of multi-tenancy — every registered Spec gets its own
// stream positions, shard workers and merged result stream.
type Spec struct {
	// Kind is the aggregate: sum, count, mean, groupby-sum,
	// groupby-mean, groupby-count or histogram.
	Kind string
	// Window and Slide configure the sliding window (defaults 10s/5s).
	// A window that is not a whole number of slides is rounded up to one;
	// one whose rounding up would overflow is refused.
	Window time.Duration
	// Slide defaults to half the window.
	Slide time.Duration
	// Fraction is the initial sampling fraction (default 0.6): below 1, a
	// fraction of each shard's previous slide segment; 1 keeps every
	// record, so the query serves Exact's windows.
	Fraction float64
	// TargetError, when positive, enables adaptive feedback: the query's
	// one controller moves every shard's fraction by the served error.
	TargetError float64
	// Confidence is the error-bound level: 68, 95 or 997 (default 95).
	Confidence int
	// HistogramEdges defines bucket edges for Kind "histogram".
	HistogramEdges []float64
	// From selects the starting position in the topic: "earliest"
	// (default) or "latest". A new registration always starts at its own
	// From, never at a position left behind by a deleted query under the
	// same id.
	From string
	// Seed makes the shard samplers reproducible (default 1); shard i
	// starts a sampling group of its own whose sampler uses Seed+i, and
	// keys each pane by that seed and the pane's start. A group that
	// folds into an older one samples on with the older group's sampler
	// and seed, so a shard's windows depend on the seed of the group it
	// samples through, not on when the groups folded.
	Seed uint64
}

// wireSpec is Spec's JSON form: durations travel as Go duration strings
// ("30s") so specs are human-writable with curl.
type wireSpec struct {
	Kind           string    `json:"kind"`
	Window         string    `json:"window,omitempty"`
	Slide          string    `json:"slide,omitempty"`
	Fraction       float64   `json:"fraction,omitempty"`
	TargetError    float64   `json:"target_error,omitempty"`
	Confidence     int       `json:"confidence,omitempty"`
	HistogramEdges []float64 `json:"histogram_edges,omitempty"`
	From           string    `json:"from,omitempty"`
	Seed           uint64    `json:"seed,omitempty"`
}

// MarshalJSON implements json.Marshaler.
func (sp Spec) MarshalJSON() ([]byte, error) {
	w := wireSpec{
		Kind:           sp.Kind,
		Fraction:       sp.Fraction,
		TargetError:    sp.TargetError,
		Confidence:     sp.Confidence,
		HistogramEdges: sp.HistogramEdges,
		From:           sp.From,
		Seed:           sp.Seed,
	}
	if sp.Window > 0 {
		w.Window = sp.Window.String()
	}
	if sp.Slide > 0 {
		w.Slide = sp.Slide.String()
	}
	return json.Marshal(w)
}

// UnmarshalJSON implements json.Unmarshaler.
func (sp *Spec) UnmarshalJSON(data []byte) error {
	var w wireSpec
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	*sp = Spec{
		Kind:           w.Kind,
		Fraction:       w.Fraction,
		TargetError:    w.TargetError,
		Confidence:     w.Confidence,
		HistogramEdges: w.HistogramEdges,
		From:           w.From,
		Seed:           w.Seed,
	}
	var err error
	if w.Window != "" {
		if sp.Window, err = time.ParseDuration(w.Window); err != nil {
			return fmt.Errorf("window: %w", err)
		}
	}
	if w.Slide != "" {
		if sp.Slide, err = time.ParseDuration(w.Slide); err != nil {
			return fmt.Errorf("slide: %w", err)
		}
	}
	return nil
}

// queryKinds maps wire names onto the public aggregate enum.
var queryKinds = map[string]streamapprox.Query{
	"sum":           streamapprox.Sum,
	"count":         streamapprox.Count,
	"mean":          streamapprox.Mean,
	"groupby-sum":   streamapprox.GroupBySum,
	"groupby-mean":  streamapprox.GroupByMean,
	"groupby-count": streamapprox.GroupByCount,
	"histogram":     streamapprox.Histogram,
}

// KindNames returns the supported kind names, sorted.
func KindNames() []string {
	out := make([]string, 0, len(queryKinds))
	for k := range queryKinds {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// normalize validates the spec and fills defaults in place.
func (sp *Spec) normalize() error {
	if _, ok := queryKinds[sp.Kind]; !ok {
		return fmt.Errorf("unknown kind %q (want one of %v)", sp.Kind, KindNames())
	}
	if sp.Kind == "histogram" && len(sp.HistogramEdges) < 2 {
		return fmt.Errorf("histogram needs at least 2 edges")
	}
	if sp.Window < 0 || sp.Slide < 0 {
		return fmt.Errorf("window and slide must be positive")
	}
	if sp.Window == 0 {
		sp.Window = 10 * time.Second
	}
	if sp.Slide == 0 {
		if sp.Slide = sp.Window / 2; sp.Slide == 0 {
			return fmt.Errorf("window %v is too short for its default slide, half of it", sp.Window)
		}
	}
	if sp.Slide > sp.Window {
		return fmt.Errorf("slide %v exceeds window %v", sp.Slide, sp.Window)
	}
	// A window is counted over whole slide segments: serve that span.
	whole := query.WholeSlides(sp.Window, sp.Slide)
	if whole < sp.Window {
		return fmt.Errorf("window %v is no whole number of %v slides, and rounding it up overflows", sp.Window, sp.Slide)
	}
	sp.Window = whole
	if !(sp.Fraction >= 0 && sp.Fraction <= 1) {
		return fmt.Errorf("fraction %v outside (0, 1]", sp.Fraction)
	}
	if sp.Fraction == 0 {
		sp.Fraction = 0.6
	}
	if !(sp.TargetError >= 0) || math.IsInf(sp.TargetError, 1) {
		return fmt.Errorf("target_error %v must be finite and >= 0", sp.TargetError)
	}
	for _, e := range sp.HistogramEdges {
		if math.IsNaN(e) || math.IsInf(e, 0) {
			return fmt.Errorf("histogram edge %v is not finite", e)
		}
	}
	switch sp.Confidence {
	case 0:
		sp.Confidence = 95
	case 68, 95, 997:
	default:
		return fmt.Errorf("confidence %d not one of 68, 95, 997", sp.Confidence)
	}
	switch sp.From {
	case "":
		sp.From = "earliest"
	case "earliest", "latest":
	default:
		return fmt.Errorf("from %q not one of earliest, latest", sp.From)
	}
	if sp.Seed == 0 {
		sp.Seed = 1
	}
	return nil
}

// query returns the public aggregate for the spec's kind.
func (sp *Spec) query() streamapprox.Query { return queryKinds[sp.Kind] }

// confidence returns the public confidence level.
func (sp *Spec) confidence() streamapprox.Confidence {
	switch sp.Confidence {
	case 68:
		return streamapprox.Confidence68
	case 997:
		return streamapprox.Confidence997
	default:
		return streamapprox.Confidence95
	}
}

// level returns the confidence level as the estimator names it: the
// public levels are the estimator's.
func (sp *Spec) level() estimate.Confidence { return estimate.Confidence(sp.confidence()) }

// combiner returns the query the shards' sessions summarise their panes
// through, which the merger combines them with.
func (sp *Spec) combiner() query.Query { return query.Named(sp.Kind, sp.level(), sp.HistogramEdges) }

// seed is the seed of the sampler shard's own sampling group starts
// with: shard samplers differ only in seed, so their panes' interval
// seeds, and with them their reservoirs, are decorrelated. Once the
// group folds into an older one, the shard samples with that group's
// seed.
func (sp *Spec) seed(shard int) uint64 { return sp.Seed + uint64(shard) }

// session is the configuration half of a shard's session snapshot: the
// library Session a shard of the spec samples as.
func (sp *Spec) session(shard int) pane.Snapshot {
	return pane.Snapshot{
		Version:        pane.Version,
		Query:          int(sp.query()),
		WindowSizeNS:   int64(sp.Window),
		WindowSlideNS:  int64(sp.Slide),
		Fraction:       sp.Fraction,
		TargetError:    sp.TargetError,
		Confidence:     int(sp.confidence()),
		HistogramEdges: sp.HistogramEdges,
		Seed:           sp.seed(shard),
	}
}
