package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"streamapprox"
	"streamapprox/internal/broker"
	"streamapprox/internal/metrics"
	"streamapprox/internal/stream"
	"streamapprox/internal/xrand"
)

// makeEvents builds a deterministic ms-spaced stream with enough strata
// to touch every partition of a 4-way topic.
func makeEvents(seed uint64, n int) []stream.Event {
	rng := xrand.New(seed)
	base := time.Date(2017, 12, 11, 0, 0, 0, 0, time.UTC)
	events := make([]stream.Event, n)
	for i := range events {
		events[i] = stream.Event{
			Stratum: fmt.Sprintf("s%02d", i%16),
			Value:   rng.Gaussian(100, 15),
			Time:    base.Add(time.Duration(i) * time.Millisecond),
		}
	}
	return events
}

// produceEvents appends events to the topic as records keyed by stratum.
func produceEvents(b *broker.Broker, topic string, events []stream.Event) (int, error) {
	recs := make([]broker.Record, len(events))
	for i, e := range events {
		recs[i] = broker.FromEvent(e)
	}
	return b.Produce(topic, recs)
}

// exactWindowSums computes the ground-truth sliding-window sums.
func exactWindowSums(events []stream.Event, size, slide time.Duration) map[time.Time]float64 {
	out := make(map[time.Time]float64)
	for _, e := range events {
		last := e.Time.Truncate(slide)
		for start := last; start.After(e.Time.Add(-size)); start = start.Add(-slide) {
			out[start] += e.Value
		}
	}
	return out
}

func postQuery(t *testing.T, url string, spec string) queryInfo {
	t.Helper()
	resp, err := http.Post(url+"/v1/queries", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("register: %s: %s", resp.Status, body)
	}
	var qi queryInfo
	if err := json.Unmarshal(body, &qi); err != nil {
		t.Fatal(err)
	}
	return qi
}

func getResults(t *testing.T, url, id string, since int64) []MergedWindow {
	t.Helper()
	resp, err := http.Get(fmt.Sprintf("%s/v1/queries/%s/results?since=%d", url, id, since))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	var out []MergedWindow
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

func waitForResults(t *testing.T, url, id string, min int, deadline time.Duration) []MergedWindow {
	t.Helper()
	stop := time.Now().Add(deadline)
	for {
		results := getResults(t, url, id, -1)
		if len(results) >= min {
			return results
		}
		if time.Now().After(stop) {
			t.Fatalf("only %d results after %v, want >= %d", len(results), deadline, min)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestServedSumQueryMergesShards is the acceptance path: a 4-partition
// topic, one OASRS worker per partition, merged per-window sums with
// combined error bounds, verified against ground truth, with /healthz
// and per-shard /metrics reporting.
func TestServedSumQueryMergesShards(t *testing.T) {
	b := broker.New()
	if err := b.CreateTopic("in", 4); err != nil {
		t.Fatal(err)
	}
	events := makeEvents(11, 20000) // 20s of data
	if _, err := produceEvents(b, "in", events); err != nil {
		t.Fatal(err)
	}

	s, err := New(Config{Cluster: b, Topic: "in", PollBackoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.Partitions() != 4 {
		t.Fatalf("partitions = %d", s.Partitions())
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	qi := postQuery(t, ts.URL, `{"kind":"sum","window":"4s","slide":"2s","fraction":0.5,"seed":7}`)
	if qi.Shards != 4 {
		t.Fatalf("query info = %+v", qi)
	}

	results := waitForResults(t, ts.URL, qi.ID, 5, 15*time.Second)
	exact := exactWindowSums(events, 4*time.Second, 2*time.Second)
	base := events[0].Time
	last := events[len(events)-1].Time
	checked := 0
	for _, r := range results {
		want, ok := exact[r.Start]
		if !ok || r.Start.Before(base) || r.End.After(last) {
			continue // edge windows see a truncated population
		}
		checked++
		if r.Error <= 0 {
			t.Errorf("window %v: error bound %v not positive", r.Start, r.Error)
		}
		if loss := math.Abs(r.Value-want) / want; loss > 0.1 {
			t.Errorf("window %v: merged %v vs exact %v (loss %.3f)", r.Start, r.Value, want, loss)
		}
		if r.Items != 4000 {
			t.Errorf("window %v: items %d, want 4000 (events lost across shards)", r.Start, r.Items)
		}
		if r.Sampled <= 0 || r.Sampled >= int(r.Items) {
			t.Errorf("window %v: sampled %d of %d — not approximating", r.Start, r.Sampled, r.Items)
		}
		if r.Shards != 4 {
			t.Errorf("window %v: merged from %d shards, want 4", r.Start, r.Shards)
		}
	}
	if checked < 4 {
		t.Fatalf("checked only %d interior windows", checked)
	}
	for i := 1; i < len(results); i++ {
		if results[i].Seq != results[i-1].Seq+1 {
			t.Errorf("seq gap: %d then %d", results[i-1].Seq, results[i].Seq)
		}
		if results[i].Start.Equal(results[i-1].Start) {
			t.Errorf("window %v emitted twice", results[i].Start)
		}
	}

	// Health and metrics surfaces.
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health map[string]any
	_ = json.NewDecoder(resp.Body).Decode(&health)
	_ = resp.Body.Close()
	if health["status"] != "ok" || health["partitions"] != float64(4) {
		t.Errorf("healthz = %v", health)
	}

	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metricsText, _ := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	for shard := 0; shard < 4; shard++ {
		want := fmt.Sprintf(`saproxd_shard_records_total{query=%q,shard="%d"}`, qi.ID, shard)
		if !bytes.Contains(metricsText, []byte(want)) {
			t.Errorf("metrics missing %s", want)
		}
	}
	if !bytes.Contains(metricsText, []byte("saproxd_queries_active 1")) {
		t.Error("metrics missing saproxd_queries_active 1")
	}
	// Every merged window is one observation of the merge-latency
	// histogram. Windows still merge while the scrape renders, histogram
	// first, so the count may trail the counter but never lead it.
	sc, err := metrics.ParseText(bytes.NewReader(metricsText))
	if err != nil {
		t.Fatal(err)
	}
	q := metrics.Labels{"query": qi.ID}
	merged, _ := sc.Value("saproxd_windows_merged_total", q)
	observed, _ := sc.Value("saproxd_window_merge_seconds_count", q)
	if observed < 5 || observed > merged {
		t.Errorf("saproxd_window_merge_seconds_count = %v for %v merged windows", observed, merged)
	}

	// Deletion flushes and removes the query.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/queries/"+qi.ID, nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delete: %s", resp.Status)
	}
	if _, ok := s.job(qi.ID); ok {
		t.Error("query still registered after delete")
	}
	// The tenant's metric series must be gone after deregistration.
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metricsText, _ = io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	if bytes.Contains(metricsText, []byte(`query="`+qi.ID+`"`)) {
		t.Errorf("metrics still carry series for deleted %s", qi.ID)
	}
}

// TestServedGroupByMeanMergesGroups checks the group-by path across
// shards: keyed partitioning pins each stratum to one partition, and the
// merged result must carry every group.
func TestServedGroupByMeanMergesGroups(t *testing.T) {
	b := broker.New()
	if err := b.CreateTopic("in", 4); err != nil {
		t.Fatal(err)
	}
	events := makeEvents(13, 12000)
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

	qi := postQuery(t, ts.URL, `{"kind":"groupby-mean","window":"4s","slide":"4s","fraction":0.6}`)
	results := waitForResults(t, ts.URL, qi.ID, 2, 15*time.Second)
	interior := 0
	for _, r := range results {
		if r.Items < 3000 {
			continue
		}
		interior++
		if len(r.Groups) != 16 {
			t.Errorf("window %v: %d groups, want 16", r.Start, len(r.Groups))
		}
		for k, g := range r.Groups {
			if math.Abs(g.Value-100) > 15 {
				t.Errorf("window %v group %s: mean %v far from 100", r.Start, k, g.Value)
			}
		}
	}
	if interior == 0 {
		t.Fatal("no full windows merged")
	}
}

// TestServedWindowSpansWhatItCounts: a window that is not a whole number
// of slides is counted over whole slide segments, so it is registered and
// served at that span: every merged window's End − Start covers exactly
// the records its Items count.
func TestServedWindowSpansWhatItCounts(t *testing.T) {
	b := broker.New()
	if err := b.CreateTopic("in", 4); err != nil {
		t.Fatal(err)
	}
	events := makeEvents(17, 20000) // 20s of data
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

	qi := postQuery(t, ts.URL, `{"kind":"count","window":"7s","slide":"5s","fraction":1}`)
	if qi.Spec.Window != 10*time.Second {
		t.Errorf("registered window %v, want 10s: two whole 5s slides", qi.Spec.Window)
	}
	for _, r := range waitForResults(t, ts.URL, qi.ID, 3, 15*time.Second) {
		var in int64
		for _, e := range events {
			if !e.Time.Before(r.Start) && e.Time.Before(r.End) {
				in++
			}
		}
		if r.Items != in {
			t.Errorf("window [%v, %v) counts %d items; %d records fall in its span", r.Start, r.End, r.Items, in)
		}
	}
}

// TestResultsLongPollWakesOnMerge checks ?wait: a request arriving
// before any window has merged must block and return results once the
// first merge lands, not time out empty.
func TestResultsLongPollWakesOnMerge(t *testing.T) {
	b := broker.New()
	if err := b.CreateTopic("in", 2); err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Cluster: b, Topic: "in", PollBackoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	qi := postQuery(t, ts.URL, `{"kind":"sum","window":"2s","slide":"1s","fraction":0.8}`)
	done := make(chan []MergedWindow, 1)
	go func() {
		resp, err := http.Get(ts.URL + "/v1/queries/" + qi.ID + "/results?since=-1&wait=10s")
		if err != nil {
			done <- nil
			return
		}
		defer func() { _ = resp.Body.Close() }()
		var out []MergedWindow
		_ = json.NewDecoder(resp.Body).Decode(&out)
		done <- out
	}()
	time.Sleep(50 * time.Millisecond) // let the poller park
	if _, err := produceEvents(b, "in", makeEvents(29, 6000)); err != nil {
		t.Fatal(err)
	}
	select {
	case out := <-done:
		if len(out) == 0 {
			t.Fatal("long poll returned empty after results merged")
		}
	case <-time.After(12 * time.Second):
		t.Fatal("long poll never returned")
	}
}

// TestStreamEndpointDeliversLiveResults exercises /stream: results
// produced after the subscription must arrive as NDJSON lines.
func TestStreamEndpointDeliversLiveResults(t *testing.T) {
	b := broker.New()
	if err := b.CreateTopic("in", 2); err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Cluster: b, Topic: "in", PollBackoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	qi := postQuery(t, ts.URL, `{"kind":"mean","window":"2s","slide":"1s","fraction":0.8}`)

	// A malformed ?since is refused like /results refuses it, not
	// silently replayed as since=-1.
	bad, err := http.Get(ts.URL + "/v1/queries/" + qi.ID + "/stream?since=abc")
	if err != nil {
		t.Fatal(err)
	}
	_ = bad.Body.Close()
	if bad.StatusCode != http.StatusBadRequest {
		t.Fatalf("/stream?since=abc: status %d, want 400", bad.StatusCode)
	}

	resp, err := http.Get(ts.URL + "/v1/queries/" + qi.ID + "/stream?since=-1")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()

	// Produce after the stream is open.
	if _, err := produceEvents(b, "in", makeEvents(17, 8000)); err != nil {
		t.Fatal(err)
	}

	type lineResult struct {
		ok  bool
		mws []MergedWindow
	}
	ch := make(chan lineResult, 1)
	go func() {
		dec := json.NewDecoder(resp.Body)
		var got []MergedWindow
		for len(got) < 3 {
			var mw MergedWindow
			if err := dec.Decode(&mw); err != nil {
				ch <- lineResult{false, got}
				return
			}
			got = append(got, mw)
		}
		ch <- lineResult{true, got}
	}()
	select {
	case lr := <-ch:
		if !lr.ok {
			t.Fatalf("stream ended after %d results", len(lr.mws))
		}
		for i, mw := range lr.mws {
			if mw.Seq != int64(i) {
				t.Errorf("stream seq[%d] = %d", i, mw.Seq)
			}
			if mw.Query != qi.ID {
				t.Errorf("stream result for %q", mw.Query)
			}
		}
	case <-time.After(15 * time.Second):
		t.Fatal("no streamed results within deadline")
	}
}

// A stream that falls k windows behind its job — k past what one wake-up
// could carry — receives all k, in Seq order, and a stream opened without
// ?since none of the windows from before it opened.
func TestStreamBehindReceivesEveryWindowInOrder(t *testing.T) {
	b := broker.New()
	if err := b.CreateTopic("in", 1); err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Cluster: b, Topic: "in", PollBackoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	qi := postQuery(t, ts.URL, `{"kind":"sum","window":"2s","slide":"1s","fraction":0.5}`)
	j, _ := s.job(qi.ID)
	emit := func(n int) {
		j.mu.Lock()
		defer j.mu.Unlock()
		for range n {
			j.emitLocked(firedWindow{result: MergedWindow{Start: time.Unix(j.seq, 0).UTC()}})
		}
	}

	const before, k = 5, 300
	emit(before)
	resp, err := http.Get(ts.URL + "/v1/queries/" + qi.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	for stop := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		j.mu.Lock()
		subscribed := len(j.subs) > 0
		j.mu.Unlock()
		if subscribed {
			break
		}
		if time.Now().After(stop) {
			t.Fatal("the stream never subscribed")
		}
	}
	emit(k)

	got := make(chan error, 1)
	go func() {
		dec := json.NewDecoder(resp.Body)
		for i := range k {
			var mw MergedWindow
			if err := dec.Decode(&mw); err != nil {
				got <- fmt.Errorf("after %d windows: %v", i, err)
				return
			}
			if mw.Seq != int64(before+i) {
				got <- fmt.Errorf("window %d has seq %d, want %d", i, mw.Seq, before+i)
				return
			}
		}
		got <- nil
	}()
	select {
	case err := <-got:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("the stream did not deliver every window within the deadline")
	}
}

// TestResultsSinceAcrossRingWrap: the result ring keeps the newest
// maxKept windows in place. /results?since=N returns every kept window
// after N once, in seq order, however often the ring has wrapped, and
// emitting never grows the ring past maxKept.
func TestResultsSinceAcrossRingWrap(t *testing.T) {
	s := fixtureServer(t, 1)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	qi := postQuery(t, ts.URL, `{"kind":"sum","window":"2s","slide":"1s"}`)
	j, _ := s.job(qi.ID)
	emit := func(n int) {
		j.mu.Lock()
		defer j.mu.Unlock()
		for range n {
			j.emitLocked(firedWindow{result: MergedWindow{Start: t0.Add(time.Duration(j.seq) * time.Second)}})
		}
		if cap(j.results) > maxKept {
			t.Fatalf("ring grew to %d", cap(j.results))
		}
	}
	check := func(since int64) {
		t.Helper()
		got := getResults(t, ts.URL, qi.ID, since)
		first := max(since+1, j.seq-maxKept)
		if want := max(j.seq-first, 0); int64(len(got)) != want {
			t.Fatalf("since %d: %d windows, want %d", since, len(got), want)
		}
		for i, w := range got {
			if w.Seq != first+int64(i) || !w.Start.Equal(t0.Add(time.Duration(w.Seq)*time.Second)) {
				t.Fatalf("since %d: window %d is seq %d at %v, want seq %d", since, i, w.Seq, w.Start, first+int64(i))
			}
		}
	}
	emit(maxKept - 3)
	check(-1)
	emit(10) // wraps
	for _, since := range []int64{-1, 5, maxKept - 5, maxKept + 5, j.seq - 1} {
		check(since)
	}
	emit(2*maxKept + 7)
	for _, since := range []int64{-1, maxKept, j.seq - maxKept - 1, j.seq - 3, j.seq - 1, j.seq + 4} {
		check(since)
	}
}

// TestRegisterRejectsNonFiniteSpec: a spec holding a NaN or infinite
// number is refused at registration. Registered, it would run, but no
// checkpoint of it could be written, so a restart would lose it.
func TestRegisterRejectsNonFiniteSpec(t *testing.T) {
	b := broker.New()
	if err := b.CreateTopic("in", 1); err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Cluster: b, Topic: "in", PollBackoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	nan, inf := math.NaN(), math.Inf(1)
	for name, sp := range map[string]Spec{
		"NaN fraction":      {Kind: "sum", Fraction: nan},
		"NaN target_error":  {Kind: "sum", TargetError: nan},
		"+Inf target_error": {Kind: "sum", TargetError: inf},
		"NaN edge":          {Kind: "histogram", HistogramEdges: []float64{0, nan, 10}},
		"-Inf edge":         {Kind: "histogram", HistogramEdges: []float64{-inf, 0, 10}},
		"+Inf edge":         {Kind: "histogram", HistogramEdges: []float64{0, 10, inf}},
	} {
		if id, err := s.Register(sp); err == nil {
			t.Errorf("%s: registered as %s", name, id)
		}
	}
}

// TestOverflowingWindowIsNotServedAsOneSlide: a window near the largest
// duration keeps its span. One that is a whole number of slides registers
// as it is; one that is not, and whose rounding up to one would pass the
// largest duration, is refused rather than served as one slide; a Session
// given such a window counts over the largest whole number of slides
// within it.
func TestOverflowingWindowIsNotServedAsOneSlide(t *testing.T) {
	for window, want := range map[string]time.Duration{"2562047h": 2562047 * time.Hour, "2562047h30m": 0} {
		var sp Spec
		if err := json.Unmarshal([]byte(`{"kind":"sum","window":"`+window+`","slide":"1h"}`), &sp); err != nil {
			t.Fatal(err)
		}
		err := sp.normalize()
		if want == 0 && err == nil {
			t.Errorf("window %s sliding by 1h registered as %v", window, sp.Window)
		}
		if want != 0 && (err != nil || sp.Window != want) {
			t.Errorf("window %s sliding by 1h registered as %v (%v), want %v", window, sp.Window, err, want)
		}
	}
	const slide = 1000000 * time.Hour
	s := streamapprox.NewSession(streamapprox.SessionConfig{WindowSize: 2562047 * time.Hour, WindowSlide: slide})
	if err := s.Push(streamapprox.Event{Stratum: "a", Value: 1, Time: time.Date(2017, 12, 11, 0, 0, 0, 0, time.UTC)}); err != nil {
		t.Fatal(err)
	}
	windows := s.Close()
	if len(windows) == 0 {
		t.Fatal("no windows served")
	}
	for _, w := range windows {
		if span := w.End.Sub(w.Start); span != 2*slide {
			t.Errorf("window [%v, %v) spans %v, want two slides (%v)", w.Start, w.End, span, 2*slide)
		}
	}
}
