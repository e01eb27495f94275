package storage

import (
	"bytes"
	"math"
	"testing"
	"time"
)

// frameRecs builds a deterministic record batch covering the key shapes
// the frame layout distinguishes: empty keys, short keys, a long key.
func frameRecs(n int) []Record {
	base := time.Unix(0, 1700000000000000000).UTC()
	out := make([]Record, n)
	for i := range out {
		key := ""
		switch i % 3 {
		case 1:
			key = "sensor-" + string(rune('a'+i%26))
		case 2:
			key = string(bytes.Repeat([]byte{byte('k')}, 100))
		}
		out[i] = Record{
			Key:   key,
			Value: float64(i) * 1.25,
			Time:  base.Add(time.Duration(i) * time.Millisecond),
		}
	}
	return out
}

// TestValidateFramesRejectsCorruption flips every byte of a valid chunk
// in turn and truncates it at every non-boundary length: each mutation
// must fail validation, so a corrupted forward can never pass the wire
// gate. (A flip in a length header breaks structure; anywhere else it
// breaks the CRC.)
func TestValidateFramesRejectsCorruption(t *testing.T) {
	recs := frameRecs(7)
	chunk := AppendRecordFrames(nil, recs)
	for i := range chunk {
		mut := append([]byte(nil), chunk...)
		mut[i] ^= 0x40
		if _, err := ValidateFrames(mut); err == nil {
			t.Fatalf("flip at byte %d validated", i)
		}
	}
	bounds := map[int]bool{0: true}
	off := 0
	for off < len(chunk) {
		off += frameSize(chunk[off:])
		bounds[off] = true
	}
	for cut := 0; cut < len(chunk); cut++ {
		n, err := ValidateFrames(chunk[:cut])
		if bounds[cut] {
			if err != nil {
				t.Fatalf("boundary truncation at %d: %v", cut, err)
			}
		} else if err == nil {
			t.Fatalf("truncation at %d validated %d frames", cut, n)
		}
	}
}

// FuzzValidateFrames drives arbitrary bytes through the validation
// gate. Whatever passes must be structurally coherent end to end:
// CountFrames agrees, iteration reassembles the exact input, and a
// MemLog accepts and round-trips it byte for byte.
func FuzzValidateFrames(f *testing.F) {
	f.Add([]byte{})
	f.Add(AppendRecordFrames(nil, frameRecs(1)))
	f.Add(AppendRecordFrames(nil, frameRecs(5)))
	f.Add([]byte{0, 0, 0, 20, 1, 2, 3, 4})
	f.Add(bytes.Repeat([]byte{0xff}, 64))
	f.Fuzz(func(t *testing.T, b []byte) {
		n, err := ValidateFrames(b)
		if err != nil {
			return
		}
		if cn, cerr := CountFrames(b); cerr != nil || cn != n {
			t.Fatalf("CountFrames = %d, %v after ValidateFrames = %d", cn, cerr, n)
		}
		var rejoined []byte
		it := IterFrames(b)
		for it.Next() {
			rejoined = append(rejoined, it.Frame()...)
		}
		if it.Err() != nil {
			t.Fatalf("IterFrames: %v", it.Err())
		}
		if !bytes.Equal(rejoined, b) {
			t.Fatal("iterated frames do not reassemble the chunk")
		}
		l := NewMemLog()
		if _, aerr := l.AppendFrames(b, n); aerr != nil {
			t.Fatalf("AppendFrames rejected a validated chunk: %v", aerr)
		}
		got, rn, rerr := l.ReadFrames(0, n, nil)
		if rerr != nil || rn != n || !bytes.Equal(got, b) {
			t.Fatalf("ReadFrames = %d, %v; round trip broken", rn, rerr)
		}
	})
}

// FuzzMemLogAppendFrames feeds arbitrary (frames, count) pairs to the
// raw append surface: it must never panic or partially mutate — either
// the chunk is rejected whole or the watermark advances by count and
// the bytes read back verbatim.
func FuzzMemLogAppendFrames(f *testing.F) {
	valid := AppendRecordFrames(nil, frameRecs(3))
	f.Add(valid, 3)
	f.Add(valid, 2)
	f.Add(valid[:len(valid)-1], 3)
	f.Add([]byte{}, 0)
	f.Add(bytes.Repeat([]byte{7}, 40), 1)
	f.Fuzz(func(t *testing.T, frames []byte, count int) {
		if count < 0 || count > 1<<16 {
			return
		}
		l := NewMemLog()
		if _, err := l.AppendFrames(frames, count); err != nil {
			if l.HighWatermark() != 0 {
				t.Fatalf("watermark %d after rejected append", l.HighWatermark())
			}
			return
		}
		if hwm := l.HighWatermark(); hwm != int64(count) {
			t.Fatalf("watermark %d after appending %d frames", hwm, count)
		}
		got, n, err := l.ReadFrames(0, count, nil)
		if err != nil || n != count || !bytes.Equal(got, frames) {
			t.Fatalf("ReadFrames = %d, %v; bytes mismatch %v", n, err, !bytes.Equal(got, frames))
		}
	})
}

// TestFrameFieldsRoundTrip pins the payload field layout the whole
// zero-copy path relies on, including NaN value bits surviving intact.
func TestFrameFieldsRoundTrip(t *testing.T) {
	r := Record{Key: "k1", Value: math.NaN(), Time: time.Unix(0, 42).UTC()}
	frame := AppendFrame(nil, &r)
	if n, err := ValidateFrames(frame); n != 1 || err != nil {
		t.Fatalf("ValidateFrames = %d, %v", n, err)
	}
	key, bits, nanos := FrameFields(frame[frameHdrLen:])
	if string(key) != "k1" || bits != math.Float64bits(math.NaN()) || nanos != 42 {
		t.Fatalf("FrameFields = %q, %x, %d", key, bits, nanos)
	}
}
