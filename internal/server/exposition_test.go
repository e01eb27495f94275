package server

import (
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"streamapprox/internal/broker"
	"streamapprox/internal/metrics"
)

// TestMetricsExpositionFormat is the golden test for saproxd's /metrics
// payload: a live server with one merged query must render every core
// family with correct HELP/TYPE metadata, well-formed sample lines, and
// internally consistent histogram series — and the whole payload must
// round-trip through the package's own parser, which is what `saprox
// status` consumes.
func TestMetricsExpositionFormat(t *testing.T) {
	b := broker.New()
	if err := b.CreateTopic("in", 2); err != nil {
		t.Fatal(err)
	}
	events := makeEvents(3, 6000)
	if _, err := produceEvents(b, "in", events); err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Cluster: b, Topic: "in", PollBackoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	qi := postQuery(t, ts.URL, `{"kind":"sum","window":"2s","slide":"1s","fraction":0.5,"seed":5,"target_error":0.04}`)
	waitForResults(t, ts.URL, qi.ID, 2, 15*time.Second)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
	var raw strings.Builder
	sc, err := metrics.ParseText(io.TeeReader(resp.Body, &raw))
	if err != nil {
		t.Fatalf("exposition does not parse: %v", err)
	}
	text := raw.String()

	// Golden family metadata: every core family with its TYPE.
	wantTypes := map[string]string{
		"saproxd_queries_active":           "gauge",
		"saproxd_windows_merged_total":     "counter",
		"saproxd_window_merge_seconds":     "histogram",
		"saproxd_query_observed_rel_error": "gauge",
		"saproxd_query_target_rel_error":   "gauge",
		"saproxd_query_lag_records":        "gauge",
		"saproxd_shard_records_total":      "counter",
		"saproxd_ingest_records_total":     "counter",
		"saproxd_ingest_queries":           "gauge",
		"saproxd_ingest_samplers":          "gauge",
	}
	for fam, typ := range wantTypes {
		if got := sc.Types[fam]; got != typ {
			t.Errorf("TYPE %s = %q, want %q", fam, got, typ)
		}
		if sc.Help[fam] == "" {
			t.Errorf("HELP %s missing", fam)
		}
	}

	// Golden line shapes: exact exposition syntax for the key families.
	for _, re := range []string{
		`(?m)^saproxd_queries_active 1$`,
		`(?m)^saproxd_windows_merged_total\{query="` + qi.ID + `"\} \d+$`,
		`(?m)^saproxd_query_target_rel_error\{query="` + qi.ID + `"\} 0\.04$`,
		`(?m)^saproxd_window_merge_seconds_bucket\{le="\+Inf",query="` + qi.ID + `"\} \d+$`,
		`(?m)^saproxd_window_merge_seconds_count\{query="` + qi.ID + `"\} \d+$`,
		`(?m)^saproxd_window_merge_seconds_sum\{query="` + qi.ID + `"\} `,
		// One adaptive query: it samples alone on each partition.
		`(?m)^saproxd_ingest_queries\{partition="1"\} 1$`,
		`(?m)^saproxd_ingest_samplers\{partition="1"\} 1$`,
	} {
		if !regexp.MustCompile(re).MatchString(text) {
			t.Errorf("exposition missing line matching %s", re)
		}
	}

	// Histogram coherence: buckets cumulative and non-decreasing, +Inf
	// bucket equals _count, and the quantile helper works on the scrape.
	m := metrics.Labels{"query": qi.ID}
	buckets := sc.Select("saproxd_window_merge_seconds_bucket", m)
	if len(buckets) < 2 {
		t.Fatalf("only %d merge-latency buckets", len(buckets))
	}
	sort.Slice(buckets, func(i, j int) bool {
		li, _ := parseLe(buckets[i].Labels["le"])
		lj, _ := parseLe(buckets[j].Labels["le"])
		return li < lj
	})
	for i := 1; i < len(buckets); i++ {
		if buckets[i].Value < buckets[i-1].Value {
			t.Fatalf("bucket counts not cumulative: %v then %v", buckets[i-1], buckets[i])
		}
	}
	count, ok := sc.Value("saproxd_window_merge_seconds_count", m)
	if !ok || count <= 0 {
		t.Fatalf("merge histogram count = %v, ok=%v", count, ok)
	}
	if inf := buckets[len(buckets)-1]; inf.Labels["le"] != "+Inf" || inf.Value != count {
		t.Fatalf("+Inf bucket %v != count %v", inf, count)
	}
	if p99, ok := sc.Quantile("saproxd_window_merge_seconds", m, 0.99); !ok || p99 < 0 {
		t.Fatalf("p99 = %v, ok=%v", p99, ok)
	}

	// Observed error gauge is live and plausible (a relative error).
	if v, ok := sc.Value("saproxd_query_observed_rel_error", m); !ok || v <= 0 || v > 1 {
		t.Errorf("observed rel error = %v, ok=%v", v, ok)
	}

	// Deregistering must drop every per-query series from the payload.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/queries/"+qi.ID, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	_ = dresp.Body.Close()
	resp2, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp2.Body.Close() }()
	sc2, err := metrics.ParseText(resp2.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, fam := range []string{
		"saproxd_windows_merged_total",
		"saproxd_window_merge_seconds_bucket",
		"saproxd_query_observed_rel_error",
	} {
		if left := sc2.Select(fam, m); len(left) != 0 {
			t.Errorf("deregistered query still exposes %s: %v", fam, left)
		}
	}
}

// parseLe parses a bucket's le label ("+Inf" included).
func parseLe(s string) (float64, error) {
	if s == "+Inf" {
		return math.Inf(1), nil
	}
	return strconv.ParseFloat(s, 64)
}

// TestTargetGaugeOnlyForTargetError: saproxd_query_target_rel_error
// carries the target a query was registered with, so a fixed-fraction
// query, which has none, exposes no series (saprox status shows "-").
func TestTargetGaugeOnlyForTargetError(t *testing.T) {
	b := broker.New()
	if err := b.CreateTopic("in", 2); err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Cluster: b, Topic: "in", PollBackoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	fixed, err := s.Register(Spec{Kind: "sum", Fraction: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	adaptive, err := s.Register(Spec{Kind: "sum", Fraction: 0.5, TargetError: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	sc, err := metrics.ParseText(strings.NewReader(s.Registry().Render()))
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := sc.Value("saproxd_query_target_rel_error", metrics.Labels{"query": fixed}); ok {
		t.Errorf("fixed-fraction query %s exposes a target of %v", fixed, v)
	}
	if v, ok := sc.Value("saproxd_query_target_rel_error", metrics.Labels{"query": adaptive}); !ok || v != 0.02 {
		t.Errorf("query %s target = %v (present %v), want 0.02", adaptive, v, ok)
	}
}
