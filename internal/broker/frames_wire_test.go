package broker

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"strings"
	"testing"
	"time"

	"streamapprox/internal/broker/storage"
)

// chunkFor encodes a count-prefixed frame chunk the way a produce
// request carries it.
func chunkFor(recs []Record) []byte {
	return storage.AppendRecordFrames(binary.BigEndian.AppendUint32(nil, uint32(len(recs))), recs)
}

// TestDecodeFrameChunkRejectsCorruption drives the zero-copy path's
// single validation gate with every corruption a forwarded chunk can
// suffer in transit: bit flips anywhere in the frames, truncation, and
// a count prefix that disagrees with the bytes. Each must fail HERE,
// before any append or forward sees the chunk.
func TestDecodeFrameChunkRejectsCorruption(t *testing.T) {
	recs := recs("crc", 5)
	chunk := chunkFor(recs)

	cur := &wireCursor{b: chunk}
	n, frames := decodeFrameChunk(cur)
	if cur.err != nil || n != len(recs) {
		t.Fatalf("valid chunk: n=%d err=%v", n, cur.err)
	}
	if cn, err := storage.ValidateFrames(frames); err != nil || cn != n {
		t.Fatalf("decoded frames invalid: %d, %v", cn, err)
	}

	// Flip one bit at every position past the count prefix.
	for i := 4; i < len(chunk); i++ {
		mut := append([]byte(nil), chunk...)
		mut[i] ^= 0x10
		cur := &wireCursor{b: mut}
		if _, _ = decodeFrameChunk(cur); cur.err == nil {
			t.Fatalf("bit flip at %d decoded cleanly", i)
		}
	}
	// Truncate at every length that still covers the count prefix.
	for cut := 4; cut < len(chunk); cut++ {
		cur := &wireCursor{b: chunk[:cut]}
		if _, _ = decodeFrameChunk(cur); cur.err == nil {
			t.Fatalf("truncation at %d decoded cleanly", cut)
		}
	}
	// A lying count prefix: declared > actual and declared < actual.
	for _, declared := range []uint32{4, 6, 0} {
		mut := append([]byte(nil), chunk...)
		mut[0], mut[1], mut[2], mut[3] = byte(declared>>24), byte(declared>>16), byte(declared>>8), byte(declared)
		cur := &wireCursor{b: mut}
		if _, _ = decodeFrameChunk(cur); cur.err == nil {
			t.Fatalf("count lie %d decoded cleanly", declared)
		}
	}
}

// parentProduceRequest is a partitioned produce (topic "in", partition 0,
// pid 9, seq 1) as the wire-version-6 client of the commit before frames
// had time codes encoded it: two frames of tcode 0 holding
// parentProduceRecords.
const parentProduceRequest = "0608000000000000000500000000000000000002696e0000000000000000000000090000000000000001000000054a0000009e3b4132030000000300020000006b310000000003000000e98db5000102000000000000f83f00000000000000c0000000000000084015cd853dfe9c971700000000000000801570674ffe9c971735000000b83b539502000000020003000000e98db5020000006b3100010000000000001140000000000000e0bf15972079fe9c971715972079fe9c9717"

var parentProduceRecords = []Record{
	{Key: "k1", Value: 1.5, Time: time.Unix(1700000000, 123456789).UTC()},
	{Key: "", Value: -2},
	{Key: "鍵", Value: 3, Time: time.Unix(1700000000, 423456789).UTC()},
	{Key: "鍵", Value: 4.25, Time: time.Unix(1700000001, 123456789).UTC()},
	{Key: "k1", Value: -0.5, Time: time.Unix(1700000001, 123456789).UTC()},
}

// TestParentWrittenProduceChunk: the version-6 request is refused whole
// at the wire gate, naming both versions, and nothing is appended; its
// frame chunk, carried under the current version byte, is valid as it
// is — stored and served verbatim, record for record.
func TestParentWrittenProduceChunk(t *testing.T) {
	raw, err := hex.DecodeString(parentProduceRequest)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := decodeBinRequest(raw); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("version 6 (want %d)", wireVersion)) {
		t.Fatalf("decoding a version-6 request: %v", err)
	}
	srv, cli := startServer(t)
	if err := cli.CreateTopic("in", 1); err != nil {
		t.Fatal(err)
	}
	if _, err := cli.callBinaryT(cli.reqTimeout, func(fb *frameBuf, corr uint64) { fb.b = append(fb.b[:0], raw...) }); err == nil {
		t.Fatal("the server took a version-6 request")
	}
	if hwm, err := srv.broker.HighWatermark("in", 0); err != nil || hwm != 0 {
		t.Fatalf("watermark after the refused request = %d, %v", hwm, err)
	}
	raw[0] = wireVersion
	req, err := decodeBinRequest(raw)
	if err != nil || req.count != len(parentProduceRecords) {
		t.Fatalf("the parent's chunk under the current version decodes as %d records, %v", req.count, err)
	}
	cli, err = dial(srv.Addr(), DefaultDialTimeout, defaultRequestTimeout)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if _, err := cli.callBinaryT(cli.reqTimeout, func(fb *frameBuf, corr uint64) {
		fb.b = append(fb.b[:0], raw...)
		binary.BigEndian.PutUint64(fb.b[2:], corr)
	}); err != nil {
		t.Fatalf("producing the parent's chunk: %v", err)
	}
	if stored, n, err := srv.broker.fetchFrames("in", 0, 0, 10, nil); err != nil || n != 5 || !bytes.Equal(stored, req.frames) {
		t.Fatalf("stored %d records, %v; want the parent's frames verbatim", n, err)
	}
	got, err := cli.Fetch("in", 0, 0, 10)
	if err != nil || len(got) != len(parentProduceRecords) {
		t.Fatalf("fetched %d records, %v", len(got), err)
	}
	for i, want := range parentProduceRecords {
		if !sameRecord(got[i], want) {
			t.Fatalf("record %d = %+v, want %+v", i, got[i], want)
		}
	}
}

// TestCorruptProduceRejectedBeforeAppend sends a produce request whose
// frame chunk carries a broken CRC through a real server connection.
// The server treats an invalid chunk as protocol-level garbage: the
// connection is dropped at the decode gate and NOTHING is appended —
// the log never sees a byte of the corrupted batch.
func TestCorruptProduceRejectedBeforeAppend(t *testing.T) {
	srv, cli := startServer(t)
	if err := cli.CreateTopic("in", 1); err != nil {
		t.Fatal(err)
	}
	batch := recs("crc", 10)
	_, err := cli.callBinaryT(cli.reqTimeout, func(fb *frameBuf, corr uint64) {
		encodeProducePartFwdReq(fb, corr, 0, "in", 0, 0, 0, storage.AppendRecordFrames(nil, batch), len(batch))
		// Corrupt one payload byte of the last frame, after the CRCs
		// were computed — exactly what line noise on a forward does.
		fb.b[len(fb.b)-1] ^= 0x01
	})
	if err == nil {
		t.Fatal("corrupt produce was accepted")
	}
	if hwm, herr := srv.broker.HighWatermark("in", 0); herr != nil || hwm != 0 {
		t.Fatalf("watermark after corrupt produce = %d, %v; want 0", hwm, herr)
	}
	// A fresh connection works and the topic is intact.
	cli2, err := dial(srv.Addr(), DefaultDialTimeout, defaultRequestTimeout)
	if err != nil {
		t.Fatalf("redial: %v", err)
	}
	defer cli2.Close()
	if n, err := produceRouted(cli2, "in", batch); err != nil || n != len(batch) {
		t.Fatalf("clean produce after rejection = %d, %v", n, err)
	}
	if hwm, err := srv.broker.HighWatermark("in", 0); err != nil || hwm != int64(len(batch)) {
		t.Fatalf("watermark after clean produce = %d, %v", hwm, err)
	}
}
