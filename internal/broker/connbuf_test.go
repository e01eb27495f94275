package broker

import (
	"bytes"
	"fmt"
	"math"
	"testing"
	"time"

	"streamapprox/internal/broker/storage"
)

// servedFetch is the serving tier's fetchMax (internal/server): the
// records one ingest round asks for.
const servedFetch = 4096

// TestFramesLargerThanConnBuffers: the connection buffers bound no
// frame. A produce whose chunk alone exceeds connBufSize, a fetch of a
// full serving-tier round, and a pipelined burst of fetch replies that
// together overflow the server's writer all arrive byte-exact and in
// order.
func TestFramesLargerThanConnBuffers(t *testing.T) {
	srv, cli := startServer(t)
	if err := cli.CreateTopic("big", 1); err != nil {
		t.Fatal(err)
	}
	base := time.Date(2017, 12, 11, 0, 0, 0, 0, time.UTC)
	recs := make([]Record, 3*servedFetch)
	for i := range recs {
		recs[i] = Record{Key: fmt.Sprintf("k%d", i%5), Value: float64(i) + 0.25, Time: base.Add(time.Duration(i) * time.Microsecond)}
	}
	var chunk []byte
	for at := 0; at < len(recs); at += 500 { // one frame per 500-record batch
		chunk = storage.AppendRecordFrames(chunk, recs[at:min(at+500, len(recs))])
	}
	// served is what the log answers for [from, to): its frames as
	// stored, any frame the range cuts re-encoded.
	served := func(t *testing.T, from, to int) []byte {
		t.Helper()
		b, err := storage.SliceFrames(nil, chunk, from, to)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	same := func(t *testing.T, what string, got []Record, from int) {
		t.Helper()
		for i, r := range got {
			w := recs[from+i]
			if r.Offset != int64(from+i) || r.Key != w.Key || math.Float64bits(r.Value) != math.Float64bits(w.Value) || !r.Time.Equal(w.Time) {
				t.Fatalf("%s: record %d = %+v, want %+v at offset %d", what, i, r, w, from+i)
			}
		}
	}

	t.Run("produce", func(t *testing.T) {
		if len(chunk) <= connBufSize {
			t.Fatalf("chunk of %d bytes fits the %d-byte buffer", len(chunk), connBufSize)
		}
		if n, err := cli.producePartitionFrames("big", 0, 0, 0, chunk, len(recs)); err != nil || n != len(recs) {
			t.Fatalf("produce = %d, %v", n, err)
		}
		if stored, n, err := srv.broker.fetchFrames("big", 0, 0, len(recs), nil); err != nil || n != len(recs) || !bytes.Equal(stored, chunk) {
			t.Fatalf("stored %d records, %v; want the produced chunk verbatim", n, err)
		}
	})

	t.Run("fetch", func(t *testing.T) {
		for _, from := range []int{0, 250, servedFetch + 1} {
			err := cli.fetchFrames("big", 0, int64(from), servedFetch, func(base int64, count int, frames []byte) {
				if want := served(t, from, from+servedFetch); base != int64(from) || count != servedFetch || !bytes.Equal(frames, want) {
					t.Fatalf("fetch at %d: base %d, %d records, %d bytes; want %d records in %d bytes", from, base, count, len(frames), servedFetch, len(want))
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			got, err := cli.Fetch("big", 0, int64(from), servedFetch)
			if err != nil || len(got) != servedFetch {
				t.Fatalf("fetch at %d: %d records, %v", from, len(got), err)
			}
			same(t, fmt.Sprintf("fetch at %d", from), got, from)
		}
	})

	t.Run("pipelined", func(t *testing.T) {
		const burst, per = 12, 1000
		var flights []flight
		for i := range burst {
			f, err := cli.start(cli.reqTimeout, func(fb *frameBuf, corr uint64) {
				encodeFetchFramesReq(fb, corr, 0, "big", 0, int64(i*per), per)
			})
			if err != nil {
				t.Fatal(err)
			}
			flights = append(flights, f)
		}
		total := 0
		for i, f := range flights {
			fb, err := cli.await(f)
			if err != nil {
				t.Fatalf("reply %d: %v", i, err)
			}
			cur, err := decodeRespHeader(fb)
			if err != nil {
				t.Fatalf("reply %d: %v", i, err)
			}
			base, count, frames, err := decodeFramesResp(&cur)
			if want := served(t, i*per, (i+1)*per); err != nil || base != int64(i*per) || count != per || !bytes.Equal(frames, want) {
				t.Fatalf("reply %d: base %d, %d records, %v; want %d records from %d, byte-exact", i, base, count, err, per, i*per)
			}
			total += len(fb.b)
			putFrame(fb)
		}
		if total <= connBufSize {
			t.Fatalf("the burst's %d reply bytes fit the %d-byte writer", total, connBufSize)
		}
	})
}
