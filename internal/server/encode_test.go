package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	"streamapprox/internal/broker"
	"streamapprox/internal/stream"
)

// encodeWindow is the reference: what json.Encoder writes for mw.
func encodeWindow(t testing.TB, mw *MergedWindow) []byte {
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(mw); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// fanoutWindows are fanout-shaped served windows: a sum, a six-borough
// groupby-mean and a seven-edge histogram, each merged from four shards.
func fanoutWindows(t testing.TB) []MergedWindow {
	var out []MergedWindow
	for i, kind := range []string{"sum", "groupby-mean", "histogram"} {
		sp := &Spec{Kind: kind, Window: 4 * time.Second, Slide: 2 * time.Second, HistogramEdges: []float64{0, 1, 2, 4, 8, 16, 64}}
		if err := sp.normalize(); err != nil {
			t.Fatal(err)
		}
		start := t0.Add(123456789 * time.Nanosecond)
		mw := handAll(t, newMerger(sp, 4), start, start.Add(2*sp.Slide), fanoutPanes(sp.combiner(), 4)...)[0]
		mw.Seq, mw.Query = int64(1000+i), fmt.Sprintf("q-%d", i)
		out = append(out, mw)
	}
	return out
}

// FuzzAppendWindow checks appendWindow against json.Encoder: the same
// bytes for every finite window, and for any window a valid JSON line
// that decodes back to the input, non-finite numbers read as 0.
func FuzzAppendWindow(f *testing.F) {
	f.Add(int64(7), "q-0", "manhattan", "brooklyn", int64(1512950400123456789), int16(0), int64(4e9), 2.5, 0.125, 1e-6, int64(1000), 400, 4, uint8(2))
	f.Add(int64(-1), "<&>\u2028\u2029", "a\x00\x1f\"\\\x7f", "\xff\xfe\xed\xa0\x80", int64(-1), int16(-330), int64(0), math.Copysign(0, -1), 1e21, 5e-324, int64(-3), -1, 0, uint8(3))
	f.Add(int64(0), "", "", "\u2028", int64(0), int16(840), int64(1), 9.999999999999999e-7, 1e20, math.MaxFloat64, int64(0), 0, 1, uint8(0))
	f.Add(int64(1), "q", "k", "k2", int64(1), int16(60), int64(1), math.NaN(), math.Inf(1), math.Inf(-1), int64(1), 1, 1, uint8(1))
	f.Add(int64(2), "q\t\n\r\b\f", "é", "😀", int64(99), int16(-1439), int64(3), 1e-7, -1.5e300, 123456789.125, int64(9), 2, 3, uint8(3))
	f.Fuzz(func(t *testing.T, seq int64, query, k1, k2 string, startNs int64, zoneMin int16, widthNs int64, v1, v2, v3 float64, items int64, sampled, shards int, shape uint8) {
		zone := time.FixedZone("", int(zoneMin)%1440*60)
		start := time.Unix(0, startNs).In(zone)
		mw := MergedWindow{
			Seq: seq, Query: query, Start: start, End: start.Add(time.Duration(widthNs)),
			Value: v1, Error: v2, Confidence: "95%", Items: items, Sampled: sampled, Shards: shards,
		}
		if shape&1 != 0 {
			mw.Groups = map[string]PointEstimate{k1: {Value: v2, Error: v3}, k2: {Value: v3, Error: v1}, query: {}}
		}
		if shape&2 != 0 {
			mw.Buckets = []BucketEstimate{{Lo: v3, Hi: v1, Count: PointEstimate{Value: v2, Error: v3}}, {}}
		}
		var keys []string
		line := append(appendWindow(nil, &mw, &keys), '\n')
		if !json.Valid(line) {
			t.Fatalf("invalid JSON %q", line)
		}
		finite := true
		for _, v := range []float64{v1, v2, v3} {
			finite = finite && !math.IsNaN(v) && !math.IsInf(v, 0)
		}
		if finite {
			if ref := encodeWindow(t, &mw); !bytes.Equal(line, ref) {
				t.Fatalf("appendWindow\n%s\njson.Encoder\n%s", line, ref)
			}
		}
		var back MergedWindow
		if err := json.Unmarshal(line, &back); err != nil {
			t.Fatal(err)
		}
		want := finiteWindow(mw)
		if got, exp := encodeWindow(t, &back), encodeWindow(t, &want); !bytes.Equal(got, exp) {
			t.Fatalf("decoded\n%s\nwant\n%s", got, exp)
		}
	})
}

// finiteWindow is mw as a decoder reads it back: non-finite numbers 0,
// each invalid UTF-8 byte of a string U+FFFD.
func finiteWindow(mw MergedWindow) MergedWindow {
	num := func(f float64) float64 {
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return 0
		}
		return f
	}
	point := func(p PointEstimate) PointEstimate { return PointEstimate{num(p.Value), num(p.Error)} }
	text := func(s string) string { return string([]rune(s)) }
	out := mw
	out.Query, out.Value, out.Error = text(mw.Query), num(mw.Value), num(mw.Error)
	if len(mw.Groups) > 0 {
		// Keys are read in sorted order: of two that read the same, the
		// later one's value stays.
		keys := make([]string, 0, len(mw.Groups))
		for k := range mw.Groups {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		out.Groups = map[string]PointEstimate{}
		for _, k := range keys {
			out.Groups[text(k)] = point(mw.Groups[k])
		}
	}
	out.Buckets = nil
	for _, b := range mw.Buckets {
		out.Buckets = append(out.Buckets, BucketEstimate{Lo: num(b.Lo), Hi: num(b.Hi), Count: point(b.Count)})
	}
	return out
}

// BenchmarkEncodeWindow is the emit stage of one fanout-shaped window:
// json.Encoder, as /stream wrote windows before, against appendWindow.
func BenchmarkEncodeWindow(b *testing.B) {
	windows := fanoutWindows(b)
	b.Run("json.Encoder", func(b *testing.B) {
		enc := json.NewEncoder(io.Discard)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := enc.Encode(&windows[i%len(windows)]); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("appendWindow", func(b *testing.B) {
		var buf []byte
		var keys []string
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			buf = append(appendWindow(buf[:0], &windows[i%len(windows)], &keys), '\n')
		}
	})
}

// TestFanoutWindowsMatchEncoder pins the benchmark's windows byte for
// byte to json.Encoder.
func TestFanoutWindowsMatchEncoder(t *testing.T) {
	var keys []string
	for _, mw := range fanoutWindows(t) {
		if got, want := append(appendWindow(nil, &mw, &keys), '\n'), encodeWindow(t, &mw); !bytes.Equal(got, want) {
			t.Errorf("appendWindow\n%s\njson.Encoder\n%s", got, want)
		}
	}
}

// TestNonFiniteWindowServed is one NaN record value on a served query:
// every window that holds it is served with "value":null, and neither
// /results nor /stream stops at it.
func TestNonFiniteWindowServed(t *testing.T) {
	b := broker.New()
	if err := b.CreateTopic("in", 1); err != nil {
		t.Fatal(err)
	}
	events := make([]stream.Event, 6000)
	for i := range events {
		events[i] = stream.Event{Stratum: "s", Value: 1, Time: t0.Add(time.Duration(i) * time.Millisecond)}
	}
	nan := events[2500].Time
	events[2500].Value = math.NaN()
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
	qi := postQuery(t, ts.URL, `{"kind":"sum","window":"2s","slide":"1s","fraction":1}`)
	j, _ := s.job(qi.ID)
	const want = 5
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		j.mu.Lock()
		n := j.seq
		j.mu.Unlock()
		if n >= want {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d windows merged, want %d", n, want)
		}
	}

	resp, err := http.Get(ts.URL + "/v1/queries/" + qi.ID + "/results?since=-1")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	var results []MergedWindow
	if err := json.Unmarshal(body, &results); err != nil {
		t.Fatalf("/results: %v: %q", err, body)
	}
	if len(results) < want {
		t.Fatalf("/results: %d windows, want %d", len(results), want)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/v1/queries/"+qi.ID+"/stream?since=-1", nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	sc := bufio.NewScanner(resp.Body)
	for seq := int64(0); seq < want; seq++ {
		if !sc.Scan() {
			t.Fatalf("/stream ended before seq %d: %v", seq, sc.Err())
		}
		var mw MergedWindow
		if err := json.Unmarshal(sc.Bytes(), &mw); err != nil || mw.Seq != seq {
			t.Fatalf("/stream line %q: seq %d, err %v, want seq %d", sc.Bytes(), mw.Seq, err, seq)
		}
		holds := !mw.Start.After(nan) && mw.End.After(nan)
		if null := strings.Contains(sc.Text(), `"value":null`); null != holds {
			t.Errorf("window [%v, %v) holds the NaN: %v, served null: %v", mw.Start, mw.End, holds, null)
		}
	}
}
