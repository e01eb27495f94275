package broker

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"streamapprox/internal/broker/storage"
	"streamapprox/internal/xrand"
)

// decodeBinRequest decodes one request into a binRequest of its own.
func decodeBinRequest(payload []byte) (binRequest, error) {
	var req binRequest
	err := req.decode(payload)
	return req, err
}

// encodeDecodeProduce round-trips records through the batch builder's
// framing and the produce-request encoder, the path every produced
// record takes.
func encodeDecodeProduce(t *testing.T, topic string, in []Record) []Record {
	t.Helper()
	fb := getFrame()
	defer putFrame(fb)
	encodeProducePartFwdReq(fb, 42, 0, topic, 3, 5, 6, storage.AppendRecordFrames(nil, in), len(in))
	req, err := decodeBinRequest(fb.b)
	if err != nil {
		t.Fatalf("decode produce: %v", err)
	}
	if req.op != binOpProducePartF || req.corr != 42 || req.topic != topic || req.partition != 3 ||
		req.pid != 5 || req.seq != 6 || req.count != len(in) {
		t.Fatalf("decoded header (op=%d corr=%d topic=%q partition=%d pid=%d seq=%d count=%d)",
			req.op, req.corr, req.topic, req.partition, req.pid, req.seq, req.count)
	}
	return framesToRecords(req.frames, req.count, topic, 0, 0)
}

// sameRecord compares the wire-carried fields, treating NaN as equal to
// itself (bit-level value fidelity is the codec's contract).
func sameRecord(a, b Record) bool {
	return a.Key == b.Key &&
		math.Float64bits(a.Value) == math.Float64bits(b.Value) &&
		a.Time.Equal(b.Time) && a.Time.IsZero() == b.Time.IsZero()
}

func TestBinaryCodecRoundTripEdgeCases(t *testing.T) {
	when := time.Date(2017, 12, 11, 1, 2, 3, 456789, time.UTC)
	cases := []Record{
		{Key: "sensor-1", Value: 123.456, Time: when},
		{Key: "", Value: 0, Time: when},                 // empty key
		{Key: "zero-time", Value: 1, Time: time.Time{}}, // zero time sentinel
		{Key: "nan", Value: math.NaN(), Time: when},     // JSON cannot carry this
		{Key: "+inf", Value: math.Inf(1), Time: when},   // nor this
		{Key: "-inf", Value: math.Inf(-1), Time: when},  // nor this
		{Key: "neg-zero", Value: math.Copysign(0, -1), Time: when},
		{Key: strings.Repeat("k", 4096), Value: -1e300, Time: when.Add(-time.Hour)},
		{Key: "epoch", Value: 1, Time: time.Unix(0, 0).UTC()},
		{Key: "pre-epoch", Value: 1, Time: time.Unix(-1, 999).UTC()},
	}
	got := encodeDecodeProduce(t, "edge", cases)
	if len(got) != len(cases) {
		t.Fatalf("decoded %d records, want %d", len(got), len(cases))
	}
	for i := range cases {
		if !sameRecord(cases[i], got[i]) {
			t.Errorf("record %d mangled: %+v -> %+v", i, cases[i], got[i])
		}
	}
}

// TestBinaryCodecRoundTripProperty hammers the codec with random
// records: encode→decode must be the identity on key, value bits and
// instant for any input.
func TestBinaryCodecRoundTripProperty(t *testing.T) {
	rng := xrand.New(99)
	for trial := 0; trial < 200; trial++ {
		n := int(rng.Uint64()%64) + 1
		in := make([]Record, n)
		for i := range in {
			keyLen := int(rng.Uint64() % 16)
			var sb strings.Builder
			for k := 0; k < keyLen; k++ {
				sb.WriteRune(rune('a' + rng.Uint64()%26))
			}
			in[i] = Record{
				Key:   sb.String(),
				Value: math.Float64frombits(rng.Uint64()),
				Time:  time.Unix(0, int64(rng.Uint64()%uint64(1e18))).UTC(),
			}
			if rng.Uint64()%10 == 0 {
				in[i].Time = time.Time{}
			}
		}
		got := encodeDecodeProduce(t, "prop", in)
		if len(got) != len(in) {
			t.Fatalf("trial %d: decoded %d of %d", trial, len(got), len(in))
		}
		for i := range in {
			if !sameRecord(in[i], got[i]) {
				t.Fatalf("trial %d record %d: %+v -> %+v", trial, i, in[i], got[i])
			}
		}
	}
}

// FuzzBinaryRecordCodec is the fuzz form of the round-trip property for
// a single record through produce encode→decode and fetch encode→decode.
func FuzzBinaryRecordCodec(f *testing.F) {
	f.Add("key", 1.5, int64(1512954123456789), false)
	f.Add("", 0.0, int64(0), true)
	f.Add("nan", math.NaN(), int64(-1), false)
	f.Add(strings.Repeat("x", 100), math.Inf(-1), int64(math.MaxInt64/2), false)
	f.Fuzz(func(t *testing.T, key string, value float64, nanos int64, zeroTime bool) {
		when := time.Unix(0, nanos).UTC()
		if zeroTime {
			when = time.Time{}
		}
		in := Record{Key: key, Value: value, Time: when}

		// produce path
		if got := encodeDecodeProduce(t, "fuzz", []Record{in}); len(got) != 1 || !sameRecord(in, got[0]) {
			t.Fatalf("produce round trip: %+v -> %+v", in, got)
		}

		// fetch path (topic, partition and offsets stamped client-side
		// from the request and the response's base)
		fb := getFrame()
		defer putFrame(fb)
		at := beginFetchFramesResp(fb, 7, 17)
		fb.b = storage.AppendRecordFrames(fb.b, []Record{in})
		patchFrameCount(fb, at, 1)
		cur, err := decodeRespHeader(fb)
		if err != nil {
			t.Fatalf("fetch header: %v", err)
		}
		base, count, frames, err := decodeFramesResp(&cur)
		if err != nil {
			t.Fatalf("fetch decode: %v", err)
		}
		out := framesToRecords(frames, count, "fuzz", 3, base)
		if len(out) != 1 || !sameRecord(in, out[0]) || out[0].Offset != 17 ||
			out[0].Topic != "fuzz" || out[0].Partition != 3 {
			t.Fatalf("fetch round trip: %+v -> %+v", in, out)
		}
	})
}

// FuzzBinaryRequestDecode feeds arbitrary bytes to the server-side
// request decoder: it must reject garbage with an error, never panic or
// over-read.
func FuzzBinaryRequestDecode(f *testing.F) {
	fb := getFrame()
	encodeProducePartFwdReq(fb, 1, 0, "t", 0, 1, 1, storage.AppendRecordFrames(nil, recs("k", 3)), 3)
	f.Add(append([]byte(nil), fb.b...))
	encodeFetchFramesReq(fb, 2, 0, "t", 0, 0, 10)
	f.Add(append([]byte(nil), fb.b...))
	encodeReplicateReq(fb, 3, 0, 1, "n0", "t", 0, &replSection{metas: []batchMeta{{pid: 1, seq: 1, end: 3}},
		frames: storage.AppendRecordFrames(nil, recs("k", 3)), count: 3})
	f.Add(append([]byte(nil), fb.b...))
	encodeRFetchReq(fb, 4, 0, "n0", "t", 0, 0, 10)
	f.Add(append([]byte(nil), fb.b...))
	putFrame(fb)
	for _, op := range []byte{binOpHello, binOpMeta} {
		f.Add(appendBinReqHeader(nil, op, 5, 0))
	}
	f.Add(appendU16(appendStr(appendBinReqHeader(nil, binOpCreate, 6, 0), "t"), 2))
	f.Add(gossipOf(3, map[string]peerStatus{"n0": {Dead: true, Ver: 2}, "n1": {}})(appendStr(appendBinReqHeader(nil, binOpPing, 7, 0), "n1")))
	f.Add([]byte{wireVersion, binOpProducePartF})
	f.Add([]byte{})
	for _, c := range append(append(wireGateCases(), parentControlOps()...), retiredControlOps()...) {
		f.Add(c.payload)
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		_, _ = decodeBinRequest(payload) // must not panic
	})
}

// FuzzControlResponseDecode feeds arbitrary bytes to the client's
// decoders of the hello, meta and ping answers: each must refuse garbage
// with an error, never panic or over-read, and size nothing by a count
// larger than the bytes that remain.
func FuzzControlResponseDecode(f *testing.F) {
	b := New()
	if err := b.CreateTopic("t", 2); err != nil {
		f.Fatal(err)
	}
	n, err := NewClusterNode(b, NodeConfig{ID: "n0", Peers: map[string]string{"n0": "127.0.0.1:1", "n1": "127.0.0.1:2"}})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(n.appendMeta(nil))
	f.Add(n.appendGossip(nil))
	f.Add(appendBinRespHeader(nil, binOpHello, 1, binStatusOK))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, body []byte) {
		_, _ = decodeRespHeader(&frameBuf{b: body})
		if m, err := decodeMeta(&wireCursor{b: body}); err == nil {
			size := 8 + 2 + 4 + 5*len(m.Nodes) + 4*len(m.Topics)
			for _, ti := range m.Topics {
				for _, p := range ti.Partitions {
					size += 4 + 2*len(p.Replicas)
				}
			}
			if size > len(body) {
				t.Fatalf("a meta of %d bytes decoded to %d nodes and %d topics, at least %d bytes", len(body), len(m.Nodes), len(m.Topics), size)
			}
		}
		cur := &wireCursor{b: body}
		if g := decodeGossip(cur); cur.err == nil {
			if 8+2+g.n*minViewEntry > len(body) {
				t.Fatalf("a gossip of %d bytes decoded to %d entries", len(body), g.n)
			}
			for i, off := 0, 0; i < g.n; i++ {
				_, _, off = g.entry(off)
			}
		}
	})
}

// TestBinaryClientNegotiates sanity-checks that dial against a current
// server passes the hello version check and all ops work over it.
func TestBinaryClientNegotiates(t *testing.T) {
	_, cli := startServer(t)
	exerciseAllOps(t, cli)
}

// exerciseAllOps drives every client op against a fresh topic and
// checks record fidelity end to end.
func exerciseAllOps(t *testing.T, cli *client) {
	t.Helper()
	if err := cli.CreateTopic("mixed", 2); err != nil {
		t.Fatal(err)
	}
	if m, err := cli.Meta(); err != nil || len(m.Topics["mixed"].Partitions) != 2 {
		t.Fatalf("meta = %+v, %v; want topic mixed with 2 partitions", m, err)
	}
	when := time.Date(2017, 12, 11, 8, 0, 0, 0, time.UTC)
	in := []Record{
		{Key: "a", Value: 1.25, Time: when},
		{Key: "a", Value: -2.5, Time: when.Add(time.Second)},
		{Key: "b", Value: 3.75, Time: when.Add(2 * time.Second)},
	}
	if n, err := produceRouted(cli, "mixed", in); err != nil || n != 3 {
		t.Fatalf("produce = %d, %v", n, err)
	}
	var got []Record
	for p := 0; p < 2; p++ {
		recs, err := cli.Fetch("mixed", p, 0, 100)
		if err != nil {
			t.Fatal(err)
		}
		hwm, err := cli.HighWatermark("mixed", p)
		if err != nil || hwm != int64(len(recs)) {
			t.Fatalf("hwm(p=%d) = %d, %v (fetched %d)", p, hwm, err, len(recs))
		}
		got = append(got, recs...)
	}
	if len(got) != 3 {
		t.Fatalf("fetched %d records, want 3", len(got))
	}
	for _, r := range got {
		var want *Record
		for i := range in {
			if in[i].Time.Equal(r.Time) {
				want = &in[i]
			}
		}
		if want == nil || r.Key != want.Key || r.Value != want.Value {
			t.Errorf("record mangled in transit: %+v", r)
		}
	}
	if _, err := cli.Fetch("absent", 0, 0, 1); err == nil ||
		!strings.Contains(err.Error(), "unknown topic") {
		t.Errorf("error lost in transit: %v", err)
	}
	if err := cli.CreateTopic("mixed", 2); err == nil ||
		!strings.Contains(err.Error(), ErrTopicExists.Error()) {
		t.Errorf("control-op error lost in transit: %v", err)
	}
}

// TestPipelinedClientConcurrentStress runs many goroutines over one
// pipelined connection mixing every op; run under -race it checks the
// correlation-ID matching and pooled buffers for unsynchronized access,
// and afterwards verifies no response was delivered to the wrong waiter
// (every produced record must be fetchable exactly once per goroutine's
// private topic).
func TestPipelinedClientConcurrentStress(t *testing.T) {
	srv, _ := startServer(t)
	cli, err := dial(srv.Addr(), DefaultDialTimeout, defaultRequestTimeout)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	const goroutines = 16
	const rounds = 50
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			topic := "stress-" + string(rune('a'+g))
			if err := cli.CreateTopic(topic, 1); err != nil {
				errs <- err
				return
			}
			for i := 0; i < rounds; i++ {
				want := float64(g*rounds + i)
				if _, err := produceRouted(cli, topic, []Record{{Key: "k", Value: want}}); err != nil {
					errs <- err
					return
				}
				got, err := cli.Fetch(topic, 0, int64(i), 1)
				if err != nil {
					errs <- err
					return
				}
				if len(got) != 1 || got[0].Value != want {
					errs <- errTruncatedFrame
					return
				}
				if hwm, err := cli.HighWatermark(topic, 0); err != nil || hwm != int64(i+1) {
					errs <- err
					return
				}
				if m, err := cli.Meta(); err != nil || len(m.Topics[topic].Partitions) != 1 {
					errs <- fmt.Errorf("meta for %s = %+v, %v", topic, m, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatalf("stress: %v", err)
		}
	}
	// Cross-check: every goroutine's topic holds exactly its records.
	for g := 0; g < goroutines; g++ {
		topic := "stress-" + string(rune('a'+g))
		recs, err := cli.Fetch(topic, 0, 0, rounds*2)
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) != rounds {
			t.Fatalf("topic %s holds %d records, want %d", topic, len(recs), rounds)
		}
		for i, r := range recs {
			if r.Value != float64(g*rounds+i) {
				t.Fatalf("topic %s record %d = %v (responses crossed)", topic, i, r.Value)
			}
		}
	}
}

// TestPipelinedClientServerClose checks in-flight and subsequent
// requests fail cleanly when the server goes away.
func TestPipelinedClientServerClose(t *testing.T) {
	srv, cli := startServer(t)
	if err := cli.CreateTopic("in", 1); err != nil {
		t.Fatal(err)
	}
	srv.Close()
	if _, err := produceRouted(cli, "in", recs("k", 1)); err == nil {
		t.Error("produce after server close should fail")
	}
	if _, err := cli.Fetch("in", 0, 0, 1); err == nil {
		t.Error("fetch after server close should fail")
	}
}

// TestCodecTraceRoundTrip pins the one request header: the trace ID
// always rides after the correlation ID, zero meaning untraced.
func TestCodecTraceRoundTrip(t *testing.T) {
	for _, trace := range []uint64{0xdeadbeefcafe, 0} {
		fb := getFrame()
		encodeProducePartFwdReq(fb, 99, trace, "traced", 0, 0, 0, storage.AppendRecordFrames(nil, recs("k", 2)), 2)
		if fb.b[0] != wireVersion {
			t.Fatalf("version byte = %#x, want %#x", fb.b[0], wireVersion)
		}
		if got, ok := corrIDOf(fb.b); !ok || got != 99 {
			t.Fatalf("corrIDOf = %d, %v", got, ok)
		}
		req, err := decodeBinRequest(fb.b)
		if err != nil {
			t.Fatal(err)
		}
		if req.trace != trace || req.corr != 99 || req.topic != "traced" || req.count != 2 {
			t.Fatalf("trace %#x: bad decode: %+v", trace, req)
		}
		putFrame(fb)
	}
}
