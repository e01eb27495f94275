package storage

import (
	"bytes"
	"encoding/hex"
	"errors"
	"fmt"
	"maps"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"streamapprox/internal/metrics"
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

func mustAppend(t *testing.T, l Log, wantBase int64, recs []Record) {
	t.Helper()
	base, err := l.AppendFrames(AppendRecordFrames(nil, recs), len(recs))
	if err != nil || base != wantBase {
		t.Fatalf("AppendFrames(%d records) = base %d, %v; want base %d", len(recs), base, err, wantBase)
	}
}

// readExactly reads (offset, max) and checks the answer against the
// record-level model: the chunk validates, holds exactly the records
// testRecs puts at [offset, offset+want), and the count says so.
func readExactly(t *testing.T, l Log, offset int64, max, want int) []byte {
	t.Helper()
	got, n, err := l.ReadFrames(offset, max, nil)
	if err != nil || n != want {
		t.Fatalf("ReadFrames(%d, %d) = %d records, %v; want %d", offset, max, n, err, want)
	}
	if vn, err := ValidateFrames(got); err != nil || vn != want {
		t.Fatalf("ReadFrames(%d, %d): chunk validates as %d records, %v", offset, max, vn, err)
	}
	sameRecords(t, fmt.Sprintf("ReadFrames(%d, %d)", offset, max), decodeFrames(t, got), testRecs(int(offset), want))
	return got
}

// verifyRange reads [lo, hwm) in mixed-size pages and checks every page
// holds exactly the records of testRecs at those offsets (the
// record-at-a-time pass covers the 300 offsets at either end).
func verifyRange(t *testing.T, l Log, lo, hwm int64) {
	t.Helper()
	if got := l.HighWatermark(); got != hwm {
		t.Fatalf("hwm = %d, want %d", got, hwm)
	}
	for _, step := range []int{1, 7, 100, 5000} {
		for off := lo; off < hwm; off += int64(step) {
			if step == 1 && off >= lo+300 && off < hwm-300 {
				continue
			}
			readExactly(t, l, off, step, int(min(int64(step), hwm-off)))
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

// appendBatches appends testRecs in batches of the given sizes, one
// frame each, starting at the log's watermark, and returns the new one.
func appendBatches(t *testing.T, l Log, sizes ...int) int64 {
	t.Helper()
	at := l.HighWatermark()
	for _, n := range sizes {
		mustAppend(t, l, at, testRecs(int(at), n))
		at += int64(n)
	}
	return at
}

func TestLogConformance(t *testing.T) {
	impls := map[string]func(t *testing.T) Log{
		"MemLog": func(*testing.T) Log { return NewMemLog() },
		// Default 4096-record segments.
		"FileLog": func(t *testing.T) Log { return openFileLog(t, t.TempDir(), FileConfig{Policy: SyncNone}) },
		// Segments so small every batch rolls one.
		"FileLog-tiny-segments": func(t *testing.T) Log {
			return openFileLog(t, t.TempDir(), FileConfig{Policy: SyncNone, SegmentRecords: 3})
		},
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
				sameRecords(t, "edge records", decodeFrames(t, got[len(prefix):]), recs)
				// A read of both batches is both frames, as stored.
				if got, n, err = l.ReadFrames(0, 100, nil); err != nil || n != 2*len(recs) || !bytes.Equal(got, append(append([]byte(nil), chunk...), chunk...)) {
					t.Fatalf("two whole frames: %d records, %v", n, err)
				}
			})

			t.Run("pagination and clipping", func(t *testing.T) {
				l := open(t)
				hwm := appendBatches(t, l, 1, 99, 3990, 12, 5898) // the 12 straddles offset 4096
				verifyRange(t, l, 0, hwm)
				for _, c := range []struct {
					off  int64
					max  int
					want int
				}{
					{4090, 12, 12}, {hwm - 3, 10, 3}, {hwm, 10, 0}, {0, 0, 0}, {5, -1, 0},
				} {
					readExactly(t, l, c.off, c.max, c.want)
				}
				// A range inside one batch is the frame those records build.
				if got := readExactly(t, l, 200, 50, 50); !bytes.Equal(got, AppendRecordFrames(nil, testRecs(200, 50))) {
					t.Error("a cut read must be the frame built from the records it holds")
				}
				buf := []byte("kept")
				for _, off := range []int64{-1, hwm + 1} {
					got, n, err := l.ReadFrames(off, 1, buf)
					if !errors.Is(err, ErrOffsetOutOfRange) || n != 0 || !bytes.Equal(got, buf) {
						t.Errorf("ReadFrames(%d) = %q, %d, %v; want buf untouched, ErrOffsetOutOfRange", off, got, n, err)
					}
				}
			})

			// The exact-range rule, against the record-level model: every
			// offset, with maxes around every batch size in the log.
			t.Run("every offset, unaligned ranges", func(t *testing.T) {
				l := open(t)
				hwm := appendBatches(t, l, 1, 2, 125, 1000, 2, 1, 125)
				maxes := []int{1, 2, 3, 124, 125, 126, 1000, 1001, int(hwm)}
				if testing.Short() {
					maxes = []int{1, 126, 1001}
				}
				for off := int64(0); off <= hwm; off++ {
					for _, max := range maxes {
						readExactly(t, l, off, max, int(min(int64(max), hwm-off)))
					}
				}
				// max smaller than the first batch it lands in.
				readExactly(t, l, 3, 10, 10)
				readExactly(t, l, 128, 1, 1)
			})

			t.Run("bad chunk rejected whole", func(t *testing.T) {
				l := open(t)
				mustAppend(t, l, 0, testRecs(0, 10))
				chunk := AppendRecordFrames(nil, testRecs(10, 4))
				for _, count := range []int{0, 1, 3, 5, -1} {
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
				appendBatches(t, l, 4000, 200, 5800)
				if err := l.TruncateTo(20000); err != nil || l.HighWatermark() != 10000 {
					t.Fatalf("truncate above the watermark must be a no-op: hwm %d, %v", l.HighWatermark(), err)
				}
				if err := l.TruncateTo(4100); err != nil { // inside the second batch
					t.Fatal(err)
				}
				verifyRange(t, l, 0, 4100)
				if _, _, err := l.ReadFrames(4101, 1, nil); !errors.Is(err, ErrOffsetOutOfRange) {
					t.Fatalf("read past the cut: %v", err)
				}
				mustAppend(t, l, 4100, testRecs(4100, 5900))
				verifyRange(t, l, 0, 10000)
				if err := l.TruncateTo(4000); err != nil { // exactly on a batch boundary
					t.Fatal(err)
				}
				verifyRange(t, l, 0, 4000)
				if err := l.TruncateTo(-3); err != nil || l.HighWatermark() != 0 { // negative reads as zero
					t.Fatalf("truncate to zero: hwm %d, %v", l.HighWatermark(), err)
				}
				mustAppend(t, l, 0, testRecs(0, 5))
				verifyRange(t, l, 0, 5)
			})

			// The rejoin divergence cut lands wherever the leader's
			// committed watermark is: at every point of a small log, cut,
			// check, append on, check again.
			t.Run("truncate mid-batch at every offset", func(t *testing.T) {
				for cut := int64(0); cut <= 16; cut++ {
					l := open(t)
					appendBatches(t, l, 1, 7, 2, 6)
					if err := l.TruncateTo(cut); err != nil {
						t.Fatalf("TruncateTo(%d): %v", cut, err)
					}
					verifyRange(t, l, 0, cut)
					verifyRange(t, l, 0, appendBatches(t, l, 5, 1))
				}
			})

			// A replicate section overlapping what the follower already
			// holds: the duplicate prefix ends mid-batch, the rest lands.
			t.Run("duplicate prefix ending mid-batch", func(t *testing.T) {
				l := open(t)
				hwm := appendBatches(t, l, 10, 10)
				section := AppendRecordFrames(AppendRecordFrames(nil, testRecs(5, 20)), testRecs(25, 10)) // base 5
				rest, err := SliceFrames(nil, section, int(hwm-5), 30)
				if err != nil {
					t.Fatal(err)
				}
				if base, err := l.AppendFrames(rest, 30-int(hwm-5)); err != nil || base != hwm {
					t.Fatalf("append of the trimmed section: base %d, %v", base, err)
				}
				verifyRange(t, l, 0, 35)
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
	if err := l.TruncateTo(777); err != nil { // a cut inside a batch must survive too
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

// TestFileLogSegmentsHoldWholeFrames pins the segment layout: a header,
// then whole frames; a segment rolls before the frame that would start
// at or past SegmentRecords, never inside one.
func TestFileLogSegmentsHoldWholeFrames(t *testing.T) {
	dir := t.TempDir()
	l := openFileLog(t, dir, FileConfig{SegmentRecords: 100, Policy: SyncNone})
	appendBatches(t, l, 60, 60, 60, 100, 1) // segments: 0 (120 records), 120 (160), 280 (1)
	wantBases := []int64{0, 120, 280}
	if n, _ := l.Stats(); n != len(wantBases) {
		t.Fatalf("%d segments, want %d", n, len(wantBases))
	}
	_ = l.Close()
	for i, base := range wantBases {
		data, err := os.ReadFile(filepath.Join(dir, segName(base)))
		if err != nil {
			t.Fatalf("segment %d: %v", base, err)
		}
		if !bytes.Equal(data[:segHdrLen], appendSegHeader(nil, base)) {
			t.Fatalf("segment %d header = %x", base, data[:segHdrLen])
		}
		end := int64(281)
		if i+1 < len(wantBases) {
			end = wantBases[i+1]
		}
		if n, err := ValidateFrames(data[segHdrLen:]); err != nil || int64(n) != end-base {
			t.Fatalf("segment %d holds %d records (%v), want %d whole-frame records", base, n, err, end-base)
		}
	}
}

// countingFS counts writes: the trace a segment upgrade leaves.
type countingFS struct {
	FS
	writes int
}

func (c *countingFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	f, err := c.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &countingFile{File: f, fs: c}, nil
}

type countingFile struct {
	File
	fs *countingFS
}

func (f *countingFile) WriteAt(p []byte, off int64) (int, error) {
	f.fs.writes++
	return f.File.WriteAt(p, off)
}

// parentV1Segment is a segment the FileLog of the commit before frames
// had time codes wrote: a version-1 header, then two frames of tcode 0
// holding parentV1Records.
const parentV1Segment = "534153470100010000000000000000004a0000009e3b4132030000000300020000006b310000000003000000e98db5000102000000000000f83f00000000000000c0000000000000084015cd853dfe9c971700000000000000801570674ffe9c971735000000b83b539502000000020003000000e98db5020000006b3100010000000000001140000000000000e0bf15972079fe9c971715972079fe9c9717"

var parentV1Records = []Record{
	{Key: "k1", Value: 1.5, Time: time.Unix(1700000000, 123456789).UTC()},
	{Key: "", Value: -2},
	{Key: "鍵", Value: 3, Time: time.Unix(1700000000, 423456789).UTC()},
	{Key: "鍵", Value: 4.25, Time: time.Unix(1700000001, 123456789).UTC()},
	{Key: "k1", Value: -0.5, Time: time.Unix(1700000001, 123456789).UTC()},
}

// TestFileLogOpensV1Segment: a version-1 segment opens with its header
// bumped to version 2 in place — one write, the frames untouched — serves
// the same records, takes narrow frames after them, and a second open
// writes nothing.
func TestFileLogOpensV1Segment(t *testing.T) {
	dir := t.TempDir()
	old, err := hex.DecodeString(parentV1Segment)
	if err != nil {
		t.Fatal(err)
	}
	seg := filepath.Join(dir, segName(0))
	if err := os.WriteFile(seg, old, 0o644); err != nil {
		t.Fatal(err)
	}
	fs := &countingFS{FS: OSFS}
	l := openFileLog(t, dir, FileConfig{FS: fs})
	if fs.writes != 1 {
		t.Fatalf("first open: %d writes; want the one header write", fs.writes)
	}
	upgraded, _ := os.ReadFile(seg)
	if !bytes.Equal(upgraded[:segHdrLen], appendSegHeader(nil, 0)) || !bytes.Equal(upgraded[segHdrLen:], old[segHdrLen:]) {
		t.Fatalf("after the first open the segment starts %x; want a version-2 header over the same frames", upgraded[:segHdrLen])
	}
	got, n, err := l.ReadFrames(0, 10, nil)
	if err != nil || n != len(parentV1Records) || !bytes.Equal(got, old[segHdrLen:]) {
		t.Fatalf("ReadFrames = %d records, %v; want the stored frames verbatim", n, err)
	}
	sameRecords(t, "version 1", decodeFrames(t, got), parentV1Records)
	mustAppend(t, l, 5, parentV1Records[2:])
	_ = l.Close()
	appended, _ := os.ReadFile(seg)

	fs.writes = 0
	re := openFileLog(t, dir, FileConfig{FS: fs})
	if fs.writes != 0 {
		t.Fatalf("second open: %d writes; want none", fs.writes)
	}
	if after, _ := os.ReadFile(seg); !bytes.Equal(after, appended) {
		t.Fatal("second open changed the segment")
	}
	got, _, err = re.ReadFrames(0, 10, nil)
	if err != nil {
		t.Fatal(err)
	}
	sameRecords(t, "reopened", decodeFrames(t, got), append(slices.Clone(parentV1Records), parentV1Records[2:]...))
}

// parentSegments are two segment files written by the FileLog of the
// commit before segments had a header and frames held batches
// (SegmentRecords 2; a keyed record, an empty-key zero-time one, a
// multi-byte key): one big-endian [4]len [4]crc32-IEEE frame per record.
var parentSegments = map[int64]string{
	0: "000000165bce6174000000026b313ff8000000000000000000000000002a" +
		"000000142e6d055900000000c0000000000000008000000000000000",
	2: "00000017181b050400000003e98db5400800000000000017979cfe362a0000",
}

var parentRecords = []Record{
	{Key: "k1", Value: 1.5, Time: time.Unix(0, 42).UTC()},
	{Key: "", Value: -2},
	{Key: "鍵", Value: 3, Time: time.Unix(1700000000, 0).UTC()},
}

func writeParentSegments(t *testing.T, dir string) {
	t.Helper()
	for base, h := range parentSegments {
		raw, err := hex.DecodeString(h)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, segName(base)), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// readSegDir returns every file of a log directory, by name.
func readSegDir(t *testing.T, dir string) map[string]string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := make(map[string]string, len(entries))
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		files[e.Name()] = string(data)
	}
	return files
}

// TestFileLogRefusesHeaderlessSegments: headerless per-record segments
// are two formats back. The open fails with an error naming the segment,
// its version, the versions read and the last commit that upgrades it,
// and every file — the segments, and the temporary file that commit's
// interrupted upgrade left — is as it was.
func TestFileLogRefusesHeaderlessSegments(t *testing.T) {
	dir := t.TempDir()
	writeParentSegments(t, dir)
	if err := os.WriteFile(filepath.Join(dir, "00000000000000000002.seg.upgrade"), []byte("half a new segment"), 0o644); err != nil {
		t.Fatal(err)
	}
	before := readSegDir(t, dir)
	l, err := OpenFileLog(dir, FileConfig{SegmentRecords: 2})
	if err == nil {
		_ = l.Close()
		t.Fatal("headerless segments opened")
	}
	for _, part := range []string{"segment " + filepath.Join(dir, segName(0)), "version 0 (headerless)", "versions 1 and 2", "commit 1338931"} {
		if !strings.Contains(err.Error(), part) {
			t.Errorf("refusal %q does not name %q", err, part)
		}
	}
	if after := readSegDir(t, dir); !maps.Equal(after, before) {
		t.Fatalf("the refused open changed the directory: %d files, was %d", len(after), len(before))
	}
}

// TestFileLogDropsZeroHeaderSegment: a segment whose 16 header bytes are
// all zero was cut short while being created. It is a torn tail that
// never held a batch: it goes, the segments past it first, whether its
// file ends at the header or goes on, and the log appends from the
// segment before it.
func TestFileLogDropsZeroHeaderSegment(t *testing.T) {
	for _, whole := range []bool{false, true} {
		dir := t.TempDir()
		l := openFileLog(t, dir, FileConfig{SegmentRecords: 100})
		appendBatches(t, l, 100, 100, 100)
		_ = l.Close()
		seg := filepath.Join(dir, segName(100))
		data, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		if !whole {
			data = data[:segHdrLen]
		}
		clear(data[:segHdrLen])
		if err := os.WriteFile(seg, data, 0o644); err != nil {
			t.Fatal(err)
		}
		reg := metrics.NewRegistry()
		in := Instruments{
			TornTails:       reg.Counter("broker_storage_torn_tails_total", "", nil),
			SegmentsDropped: reg.Counter("broker_storage_segments_dropped_total", "", nil),
		}
		re := openFileLog(t, dir, FileConfig{SegmentRecords: 100, Instruments: in})
		verifyRange(t, re, 0, 100)
		if files := readSegDir(t, dir); len(files) != 1 || files[segName(0)] == "" {
			t.Fatalf("frames after the header: %v; %d files left, want segment 0 alone", whole, len(files))
		}
		if torn, dropped := in.TornTails.Value(), in.SegmentsDropped.Value(); torn != 1 || dropped != 2 {
			t.Fatalf("recovery counted %v torn tails and %v dropped segments, want 1 and 2", torn, dropped)
		}
		appendBatches(t, re, 150)
		verifyRange(t, re, 0, 250)
	}
}

// TestFileLogRefusesUnknownSegmentHeader: a header naming a format this
// build does not know is an error, and the file is left as it was.
func TestFileLogRefusesUnknownSegmentHeader(t *testing.T) {
	dir := t.TempDir()
	l := openFileLog(t, dir, FileConfig{})
	mustAppend(t, l, 0, testRecs(0, 10))
	_ = l.Close()
	seg := filepath.Join(dir, segName(0))
	data, _ := os.ReadFile(seg)
	data[4] = 9 // format version
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if l, err := OpenFileLog(dir, FileConfig{}); err == nil {
		_ = l.Close()
		t.Fatal("a segment of an unknown format version opened")
	}
	if after, _ := os.ReadFile(seg); !bytes.Equal(after, data) {
		t.Fatal("refusing a segment must not modify it")
	}
}

// TestFileLogTornBatchDroppedWhole cuts the segment at every byte of
// its last batch: recovery drops that batch whole — it was never acked
// — keeps everything before it, and appends go on from there.
func TestFileLogTornBatchDroppedWhole(t *testing.T) {
	dir := t.TempDir()
	l := openFileLog(t, dir, FileConfig{SegmentRecords: 1 << 20})
	appendBatches(t, l, 300, 200)
	_ = l.Close()
	seg := filepath.Join(dir, segName(0))
	whole, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	last := len(AppendRecordFrames(nil, testRecs(300, 200)))
	for cut := len(whole) - last; cut < len(whole); cut++ {
		if err := os.WriteFile(seg, whole[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		re := openFileLog(t, dir, FileConfig{SegmentRecords: 1 << 20})
		if st, err := os.Stat(seg); err != nil || st.Size() != int64(len(whole)-last) || re.HighWatermark() != 300 {
			t.Fatalf("cut at %d: hwm %d, %d bytes on disk; want 300 records and the torn bytes gone", cut, re.HighWatermark(), st.Size())
		}
		if cut%211 == 0 { // the full check, and appending on, at a sample of the cuts
			verifyRange(t, re, 0, 300)
			mustAppend(t, re, 300, testRecs(300, 10))
			verifyRange(t, re, 0, 310)
		}
		_ = re.Close()
	}
	// A garbage tail (not a prefix of any frame) goes the same way.
	if err := os.WriteFile(seg, append(append([]byte(nil), whole...), 0, 0, 0, 42, 1, 2, 3), 0o644); err != nil {
		t.Fatal(err)
	}
	verifyRange(t, openFileLog(t, dir, FileConfig{SegmentRecords: 1 << 20}), 0, 500)
}

func TestFileLogCorruptMiddleDropsSuffixSegments(t *testing.T) {
	dir := t.TempDir()
	l := openFileLog(t, dir, FileConfig{SegmentRecords: 100})
	for i := 0; i < 35; i++ {
		mustAppend(t, l, int64(i*10), testRecs(i*10, 10)) // segments 0,100,200,300
	}
	_ = l.Close()
	// Flip a byte mid-way through segment 100: recovery must cut that
	// segment at the corrupt batch and delete segments 200 and 300.
	seg := filepath.Join(dir, segName(100))
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xFF
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry()
	in := Instruments{
		TornTails:       reg.Counter("broker_storage_torn_tails_total", "", nil),
		SegmentsDropped: reg.Counter("broker_storage_segments_dropped_total", "", nil),
	}
	re := openFileLog(t, dir, FileConfig{SegmentRecords: 100, Instruments: in})
	hwm := re.HighWatermark()
	if hwm <= 100 || hwm >= 200 || hwm%10 != 0 {
		t.Fatalf("hwm after mid-corruption = %d, want a batch boundary inside (100, 200)", hwm)
	}
	verifyRange(t, re, 0, hwm)
	if _, err := os.Stat(filepath.Join(dir, segName(200))); !os.IsNotExist(err) {
		t.Fatalf("segment past corruption not deleted: %v", err)
	}
	if torn, dropped := in.TornTails.Value(), in.SegmentsDropped.Value(); torn != 1 || dropped != 2 {
		t.Fatalf("recovery counted %v torn tails and %v dropped segments, want 1 and 2", torn, dropped)
	}
}

// TestFileLogMissingPrefixIsOutOfRange: a log whose first segment
// starts above zero serves from there and refuses reads below it.
func TestFileLogMissingPrefixIsOutOfRange(t *testing.T) {
	dir := t.TempDir()
	l := openFileLog(t, dir, FileConfig{SegmentRecords: 100})
	appendBatches(t, l, 100, 100, 50)
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

// TestMemLogIndexBlocks: a MemLog's frame index spans blocks — reads
// that cross a block edge, a truncation inside a later block and one at
// a block edge, and appends after each, all keep every offset exact.
func TestMemLogIndexBlocks(t *testing.T) {
	l := NewMemLog()
	sizes := make([]int, 2*memIndexBlock+100) // one frame per batch
	for i := range sizes {
		sizes[i] = 1 + i%3
	}
	hwm := appendBatches(t, l, sizes...)
	if l.frames != len(sizes) || len(l.index) != 3 {
		t.Fatalf("%d frames in %d blocks, want %d in 3", l.frames, len(l.index), len(sizes))
	}
	edge := l.frame(memIndexBlock).first // the second block's first record
	readExactly(t, l, edge-5, 10, 10)
	for _, cut := range []int64{edge + 50, edge} {
		if err := l.TruncateTo(cut); err != nil {
			t.Fatal(err)
		}
		hwm = appendBatches(t, l, 5, 6, 7)
		if want := cut + 18; hwm != want {
			t.Fatalf("hwm after truncating to %d and appending 18 = %d", cut, hwm)
		}
		verifyRange(t, l, edge-400, hwm)
	}
	if len(l.index) != 2 {
		t.Fatalf("%d blocks after truncating to the second block's start, want 2", len(l.index))
	}
}
