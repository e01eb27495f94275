package storage

import (
	"bytes"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// The Log conformance suite: every behaviour the broker relies on,
// asserted once, through the frame API only, against both
// implementations. FileLog-only cases (reopen, recovery) follow it.

// testRecs builds n records whose fields are a function of their
// intended offset v0+i, so any slice of a log can be checked knowing
// only its offsets.
func testRecs(v0, n int) []Record {
	out := make([]Record, n)
	base := time.Unix(0, 0).UTC()
	for i := range out {
		out[i] = Record{
			Key:   fmt.Sprintf("k%d", (v0+i)%7),
			Value: float64(v0 + i),
			Time:  base.Add(time.Duration(v0+i) * time.Millisecond),
		}
	}
	return out
}

// edgeRecs covers the shapes the frame layout distinguishes.
func edgeRecs() []Record {
	at := time.Unix(0, 1700000000000000000).UTC()
	return []Record{
		{Key: "", Value: 1.5}, // empty key, zero time
		{Key: "a", Value: -0.0, Time: at},
		{Key: "ключ-鍵-🗝️", Value: math.Inf(-1), Time: at.Add(time.Nanosecond)},
		{Key: string(bytes.Repeat([]byte{'k'}, 300)), Value: math.MaxFloat64, Time: at.Add(-time.Hour)},
		{Key: "z", Time: time.Unix(0, -5).UTC()}, // before the epoch
	}
}

// decodeFrames is the test's own frames → records walk (the broker's
// decoder cannot be imported from here).
func decodeFrames(t *testing.T, frames []byte) []Record {
	t.Helper()
	var out []Record
	it := IterFrames(frames)
	for it.Next() {
		k, bits, nanos := FrameFields(it.Payload())
		out = append(out, Record{Key: string(k), Value: math.Float64frombits(bits), Time: TimeFromNanos(nanos)})
	}
	if it.Err() != nil {
		t.Fatalf("stored frames do not iterate: %v", it.Err())
	}
	return out
}

func mustAppend(t *testing.T, l Log, wantBase int64, recs []Record) {
	t.Helper()
	base, err := l.AppendFrames(AppendRecordFrames(nil, recs), len(recs))
	if err != nil || base != wantBase {
		t.Fatalf("AppendFrames(%d records) = base %d, %v; want base %d", len(recs), base, err, wantBase)
	}
}

// verifyRange reads [lo, hwm) in mixed-size pages and checks every page
// is byte-identical to the frames of testRecs at those offsets.
func verifyRange(t *testing.T, l Log, lo, hwm int64) {
	t.Helper()
	if got := l.HighWatermark(); got != hwm {
		t.Fatalf("hwm = %d, want %d", got, hwm)
	}
	for _, step := range []int{1, 7, 100, 5000} {
		for off := lo; off < hwm; {
			want := step
			if int64(want) > hwm-off {
				want = int(hwm - off)
			}
			got, n, err := l.ReadFrames(off, step, nil)
			if err != nil || n != want {
				t.Fatalf("ReadFrames(%d, %d) = %d frames, %v; want %d", off, step, n, err, want)
			}
			if !bytes.Equal(got, AppendRecordFrames(nil, testRecs(int(off), n))) {
				t.Fatalf("ReadFrames(%d, %d): bytes differ from what was appended", off, step)
			}
			off += int64(n)
		}
	}
}

func openFileLog(t *testing.T, dir string, cfg FileConfig) *FileLog {
	t.Helper()
	l, err := OpenFileLog(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = l.Close() })
	return l
}

func TestLogConformance(t *testing.T) {
	impls := map[string]func(t *testing.T) Log{
		"MemLog": func(*testing.T) Log { return NewMemLog() },
		// Default 4096-record segments, the same boundary as a MemLog chunk.
		"FileLog": func(t *testing.T) Log { return openFileLog(t, t.TempDir(), FileConfig{Policy: SyncNone}) },
	}
	for name, open := range impls {
		t.Run(name, func(t *testing.T) {
			t.Run("bytes in = bytes out", func(t *testing.T) {
				l := open(t)
				recs := edgeRecs()
				chunk := AppendRecordFrames(nil, recs)
				if n, err := ValidateFrames(chunk); err != nil || n != len(recs) {
					t.Fatalf("ValidateFrames = %d, %v", n, err)
				}
				// Twice, so the second chunk lands at a non-zero base.
				for i := int64(0); i < 2; i++ {
					if base, err := l.AppendFrames(chunk, len(recs)); err != nil || base != i*int64(len(recs)) {
						t.Fatalf("append %d: base %d, %v", i, base, err)
					}
				}
				prefix := []byte("caller's bytes")
				got, n, err := l.ReadFrames(int64(len(recs)), len(recs), append([]byte(nil), prefix...))
				if err != nil || n != len(recs) {
					t.Fatalf("ReadFrames = %d, %v", n, err)
				}
				if !bytes.HasPrefix(got, prefix) || !bytes.Equal(got[len(prefix):], chunk) {
					t.Fatal("ReadFrames must append the stored bytes, verbatim, onto buf")
				}
				for i, r := range decodeFrames(t, got[len(prefix):]) {
					w := recs[i]
					if r.Key != w.Key || math.Float64bits(r.Value) != math.Float64bits(w.Value) ||
						!r.Time.Equal(w.Time) || r.Time.IsZero() != w.Time.IsZero() {
						t.Errorf("record %d = %+v, want %+v", i, r, w)
					}
				}
			})

			t.Run("pagination and clipping", func(t *testing.T) {
				l := open(t)
				total := 0
				for _, n := range []int{1, 99, 3990, 12, 5898} { // the 12 straddles offset 4096
					mustAppend(t, l, int64(total), testRecs(total, n))
					total += n
				}
				hwm := int64(total)
				verifyRange(t, l, 0, hwm)
				for _, c := range []struct {
					off  int64
					max  int
					want int
				}{
					{4090, 12, 12}, {hwm - 3, 10, 3}, {hwm, 10, 0}, {0, 0, 0}, {5, -1, 0},
				} {
					got, n, err := l.ReadFrames(c.off, c.max, nil)
					if err != nil || n != c.want {
						t.Errorf("ReadFrames(%d, %d) = %d frames, %v; want %d", c.off, c.max, n, err, c.want)
					}
					if !bytes.Equal(got, AppendRecordFrames(nil, testRecs(int(c.off), c.want))) {
						t.Errorf("ReadFrames(%d, %d): wrong bytes", c.off, c.max)
					}
				}
				buf := []byte("kept")
				for _, off := range []int64{-1, hwm + 1} {
					got, n, err := l.ReadFrames(off, 1, buf)
					if !errors.Is(err, ErrOffsetOutOfRange) || n != 0 || !bytes.Equal(got, buf) {
						t.Errorf("ReadFrames(%d) = %q, %d, %v; want buf untouched, ErrOffsetOutOfRange", off, got, n, err)
					}
				}
			})

			t.Run("bad chunk rejected whole", func(t *testing.T) {
				l := open(t)
				mustAppend(t, l, 0, testRecs(0, 10))
				chunk := AppendRecordFrames(nil, testRecs(10, 4))
				for _, count := range []int{0, 3, 5, -1} {
					if _, err := l.AppendFrames(chunk, count); err == nil {
						t.Errorf("chunk of 4 declared as %d: accepted", count)
					}
				}
				if _, err := l.AppendFrames(chunk[:len(chunk)-2], 4); !errors.Is(err, ErrBadFrame) {
					t.Errorf("truncated chunk: err = %v, want ErrBadFrame", err)
				}
				verifyRange(t, l, 0, 10) // watermark and contents unmoved
				mustAppend(t, l, 10, testRecs(10, 4))
			})

			t.Run("truncate then re-append", func(t *testing.T) {
				l := open(t)
				mustAppend(t, l, 0, testRecs(0, 10000))
				if err := l.TruncateTo(20000); err != nil || l.HighWatermark() != 10000 {
					t.Fatalf("truncate above the watermark must be a no-op: hwm %d, %v", l.HighWatermark(), err)
				}
				if err := l.TruncateTo(4100); err != nil { // inside the second chunk/segment
					t.Fatal(err)
				}
				verifyRange(t, l, 0, 4100)
				if _, _, err := l.ReadFrames(4101, 1, nil); !errors.Is(err, ErrOffsetOutOfRange) {
					t.Fatalf("read past the cut: %v", err)
				}
				mustAppend(t, l, 4100, testRecs(4100, 5900))
				verifyRange(t, l, 0, 10000)
				if err := l.TruncateTo(4096); err != nil { // exactly on the boundary
					t.Fatal(err)
				}
				verifyRange(t, l, 0, 4096)
				if err := l.TruncateTo(-3); err != nil || l.HighWatermark() != 0 { // negative reads as zero
					t.Fatalf("truncate to zero: hwm %d, %v", l.HighWatermark(), err)
				}
				mustAppend(t, l, 0, testRecs(0, 5))
				verifyRange(t, l, 0, 5)
			})
		})
	}
}

func TestFileLogReopenRecovers(t *testing.T) {
	dir := t.TempDir()
	l := openFileLog(t, dir, FileConfig{SegmentRecords: 64})
	for i := 0; i < 10; i++ {
		mustAppend(t, l, int64(i*100), testRecs(i*100, 100))
	}
	if err := l.TruncateTo(777); err != nil { // a cut inside a segment must survive too
		t.Fatal(err)
	}
	mustAppend(t, l, 777, testRecs(777, 223))
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := l.AppendFrames(nil, 0); !errors.Is(err, ErrLogClosed) {
		t.Fatalf("append to a closed log: %v", err)
	}
	if _, _, err := l.ReadFrames(0, 1, nil); !errors.Is(err, ErrLogClosed) {
		t.Fatalf("read of a closed log: %v", err)
	}
	re := openFileLog(t, dir, FileConfig{SegmentRecords: 64})
	verifyRange(t, re, 0, 1000)
	mustAppend(t, re, 1000, testRecs(1000, 5)) // appends continue at the recovered watermark
	verifyRange(t, re, 0, 1005)
}

// TestFileLogOpensParentWrittenSegments pins the on-disk format: these
// two segment files were written by the record-typed FileLog.Append
// this package used to have (SegmentRecords 2; a keyed record, an
// empty-key zero-time one, a multi-byte key). They must open, recover
// and be served byte for byte — and AppendFrame must still produce
// exactly these bytes.
func TestFileLogOpensParentWrittenSegments(t *testing.T) {
	segs := map[int64]string{
		0: "000000165bce6174000000026b313ff8000000000000000000000000002a" +
			"000000142e6d055900000000c0000000000000008000000000000000",
		2: "00000017181b050400000003e98db5400800000000000017979cfe362a0000",
	}
	recs := []Record{
		{Key: "k1", Value: 1.5, Time: time.Unix(0, 42).UTC()},
		{Key: "", Value: -2},
		{Key: "鍵", Value: 3, Time: time.Unix(1700000000, 0).UTC()},
	}
	dir := t.TempDir()
	var all []byte
	for _, base := range []int64{0, 2} {
		raw, err := hex.DecodeString(segs[base])
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, segName(base)), raw, 0o644); err != nil {
			t.Fatal(err)
		}
		all = append(all, raw...)
	}
	if got := AppendRecordFrames(nil, recs); !bytes.Equal(got, all) {
		t.Fatalf("AppendFrame no longer writes the segment format:\n got %x\nwant %x", got, all)
	}
	l := openFileLog(t, dir, FileConfig{SegmentRecords: 2})
	got, n, err := l.ReadFrames(0, 10, nil)
	if err != nil || n != 3 || !bytes.Equal(got, all) {
		t.Fatalf("ReadFrames = %d frames, %v, %x", n, err, got)
	}
	mustAppend(t, l, 3, recs[:1]) // lands in the recovered second segment
	all = AppendFrame(all, &recs[0])
	got, n, err = l.ReadFrames(0, 10, nil)
	if nsegs, size := l.Stats(); err != nil || n != 4 || !bytes.Equal(got, all) || nsegs != 2 || size != int64(len(all)) {
		t.Fatalf("after append: %d frames, %v, %d segments, %d bytes", n, err, nsegs, size)
	}
}

func TestFileLogTornTailTruncatedOnOpen(t *testing.T) {
	dir := t.TempDir()
	l := openFileLog(t, dir, FileConfig{SegmentRecords: 1 << 20})
	mustAppend(t, l, 0, testRecs(0, 500))
	_ = l.Close()
	// Tear the tail: append half of a valid frame to the segment file.
	seg := filepath.Join(dir, segName(0))
	frame := AppendFrame(nil, &Record{Key: "torn", Value: 42})
	f, err := os.OpenFile(seg, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(frame[:len(frame)-5]); err != nil {
		t.Fatal(err)
	}
	_ = f.Close()
	re := openFileLog(t, dir, FileConfig{SegmentRecords: 1 << 20})
	verifyRange(t, re, 0, 500)
	// The torn bytes are gone from disk; appending works again.
	mustAppend(t, re, 500, testRecs(500, 10))
	verifyRange(t, re, 0, 510)
}

func TestFileLogCorruptMiddleDropsSuffixSegments(t *testing.T) {
	dir := t.TempDir()
	l := openFileLog(t, dir, FileConfig{SegmentRecords: 100})
	mustAppend(t, l, 0, testRecs(0, 350)) // segments 0,100,200,300
	_ = l.Close()
	// Flip a byte mid-way through segment 100: recovery must cut that
	// segment at the corruption and delete segments 200 and 300.
	seg := filepath.Join(dir, segName(100))
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xFF
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}
	re := openFileLog(t, dir, FileConfig{SegmentRecords: 100})
	hwm := re.HighWatermark()
	if hwm <= 100 || hwm >= 200 {
		t.Fatalf("hwm after mid-corruption = %d, want inside (100, 200)", hwm)
	}
	verifyRange(t, re, 0, hwm)
	if _, err := os.Stat(filepath.Join(dir, segName(200))); !os.IsNotExist(err) {
		t.Fatalf("segment past corruption not deleted: %v", err)
	}
}

// TestFileLogMissingPrefixIsOutOfRange: a log whose first segment
// starts above zero serves from there and refuses reads below it.
func TestFileLogMissingPrefixIsOutOfRange(t *testing.T) {
	dir := t.TempDir()
	l := openFileLog(t, dir, FileConfig{SegmentRecords: 100})
	mustAppend(t, l, 0, testRecs(0, 250))
	_ = l.Close()
	if err := os.Remove(filepath.Join(dir, segName(0))); err != nil {
		t.Fatal(err)
	}
	re := openFileLog(t, dir, FileConfig{SegmentRecords: 100})
	verifyRange(t, re, 100, 250)
	if _, _, err := re.ReadFrames(99, 1, nil); !errors.Is(err, ErrOffsetOutOfRange) {
		t.Fatalf("read below the log's base: %v", err)
	}
}
