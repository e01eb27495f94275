package broker

import (
	"testing"

	"streamapprox/internal/broker/storage"
)

// chunkFor encodes a count-prefixed frame chunk the way the producing
// client does.
func chunkFor(recs []Record) []byte {
	return appendRecFrameChunk(nil, recs)
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
	_, err := cli.callBinary(func(fb *frameBuf, corr uint64) {
		encodeProduceFramesReq(fb, corr, 0, "in", batch)
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
	cli2, err := Dial(srv.Addr())
	if err != nil {
		t.Fatalf("redial: %v", err)
	}
	defer cli2.Close()
	if n, err := cli2.Produce("in", batch); err != nil || n != len(batch) {
		t.Fatalf("clean produce after rejection = %d, %v", n, err)
	}
	if hwm, err := srv.broker.HighWatermark("in", 0); err != nil || hwm != int64(len(batch)) {
		t.Fatalf("watermark after clean produce = %d, %v", hwm, err)
	}
}
