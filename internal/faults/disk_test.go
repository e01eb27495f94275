package faults

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	mrand "math/rand/v2"
	"os"
	"path/filepath"
	"reflect"
	"syscall"
	"testing"
	"time"

	"streamapprox/internal/broker/storage"
)

// TestDiskFaultsAckedExactlyOnce is the disk-fault property test: drive
// a FileLog through randomized torn writes, ENOSPC and slow fsyncs, and
// assert the durability contract — every ACKED batch survives exactly
// once at its returned offset. Unacked records may or may not exist (a
// failed fsync does not roll back), but they must never displace or
// duplicate acked ones.
func TestDiskFaultsAckedExactlyOnce(t *testing.T) {
	dir := t.TempDir()
	disk := NewDisk(nil)
	log, err := storage.OpenFileLog(dir, storage.FileConfig{
		SegmentRecords: 16, // small segments so faults land on rolls too
		Policy:         storage.SyncAlways,
		FS:             disk,
	})
	if err != nil {
		t.Fatal(err)
	}

	rng := mrand.New(mrand.NewPCG(7, 42))
	type acked struct {
		base   int64
		n      int
		frames []byte // what was appended; a log serves these bytes back
	}
	var ackedBatches []acked
	var failures int

	for round := 0; round < 200; round++ {
		// Roll a fault for this round. Roughly half the rounds are clean
		// so the log keeps making progress.
		var f DiskFaults
		switch rng.IntN(6) {
		case 0: // ENOSPC before any byte lands
			f = DiskFaults{FailWrites: true}
		case 1: // torn write: a prefix of the frame bytes persists
			f = DiskFaults{FailWrites: true, TornBytes: 1 + rng.IntN(24)}
		case 2: // fsync failure: records written but must not be acked
			f = DiskFaults{SyncErr: errors.New("injected fsync failure")}
		case 3: // slow fsync: still acked, just late
			f = DiskFaults{SlowSync: time.Millisecond}
		}
		disk.Set(f)

		n := 1 + rng.IntN(8)
		recs := make([]storage.Record, n)
		for i := range recs {
			recs[i] = storage.Record{
				Key:   fmt.Sprintf("r%d-%d", round, i),
				Value: float64(round*100 + i),
			}
		}
		frames := storage.AppendRecordFrames(nil, recs)
		base, err := log.AppendFrames(frames, n)
		if err != nil {
			failures++
			continue
		}
		ackedBatches = append(ackedBatches, acked{base: base, n: n, frames: frames})
	}
	disk.Set(DiskFaults{})
	if failures == 0 || len(ackedBatches) == 0 {
		t.Fatalf("degenerate run: %d failures, %d acked batches", failures, len(ackedBatches))
	}

	// One clean append after the storm must still work.
	tail := storage.AppendRecordFrames(nil, []storage.Record{storage.Record{Key: "tail", Value: 1}})
	tailBase, err := log.AppendFrames(tail, 1)
	if err != nil {
		t.Fatalf("append after clearing faults: %v", err)
	}
	ackedBatches = append(ackedBatches, acked{base: tailBase, n: 1, frames: tail})
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen through the REAL filesystem: recovery must find a clean log
	// (rollbacks removed torn bytes; nothing to truncate twice).
	re, err := storage.OpenFileLog(dir, storage.FileConfig{SegmentRecords: 16})
	if err != nil {
		t.Fatalf("reopen after faults: %v", err)
	}
	defer re.Close()

	last := ackedBatches[len(ackedBatches)-1]
	if hwm := re.HighWatermark(); hwm < last.base+int64(last.n) {
		t.Fatalf("recovered hwm %d < last acked end %d", hwm, last.base+int64(last.n))
	}
	// Offsets are positions, so "exactly once at its offset" is checked
	// by reading each batch back at its acked base (every key is unique
	// to its round and slot, so equal bytes mean the same records).
	for _, b := range ackedBatches {
		got, n, err := re.ReadFrames(b.base, b.n, nil)
		if err != nil {
			t.Fatalf("read acked batch at %d: %v", b.base, err)
		}
		if n != b.n || !bytes.Equal(got, b.frames) {
			t.Fatalf("batch at %d: read %d records %x, acked %d records %x", b.base, n, got, b.n, b.frames)
		}
	}
	t.Logf("survived %d injected failures; %d acked batches verified after reopen", failures, len(ackedBatches))
}

// TestDiskFaultsTornTailRecovered simulates a crash INSIDE a torn
// write: the partial frame stays on disk (no rollback runs) and the
// next open must truncate it, keeping every previously acked record.
func TestDiskFaultsTornTailRecovered(t *testing.T) {
	dir := t.TempDir()
	disk := NewDisk(nil)
	log, err := storage.OpenFileLog(dir, storage.FileConfig{
		SegmentRecords: 16, Policy: storage.SyncAlways, FS: disk,
	})
	if err != nil {
		t.Fatal(err)
	}
	const ackedRecs = 10
	var ackedFrames []byte
	for i := 0; i < ackedRecs; i++ {
		frame := storage.AppendRecordFrames(nil, []storage.Record{storage.Record{Key: fmt.Sprintf("ok%d", i), Value: float64(i)}})
		if _, err := log.AppendFrames(frame, 1); err != nil {
			t.Fatal(err)
		}
		ackedFrames = append(ackedFrames, frame...)
	}
	// Torn write, then a "crash": the log is abandoned (not closed, no
	// rollback beyond AppendFrames' own, files left as-is). That
	// rollback uses Truncate, which passes through, so the append cleans
	// up after itself. To leave a REAL torn tail we write garbage
	// straight into the tail file.
	disk.Set(DiskFaults{FailWrites: true, TornBytes: 7})
	_, err = log.AppendFrames(storage.AppendRecordFrames(nil, []storage.Record{storage.Record{Key: "torn", Value: 99}}), 1)
	if err == nil {
		t.Fatal("append through FailWrites succeeded")
	}
	disk.Set(DiskFaults{})
	_ = log.Close()

	// Emulate the crash remnant recovery must handle: a half-written
	// frame at the tail of the last segment.
	f, err := storage.OSFS.OpenFile(dir+"/00000000000000000000.seg", 2 /*O_RDWR*/, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	st, _ := f.Stat()
	if _, err := f.WriteAt([]byte{0, 0, 0, 42, 1, 2, 3}, st.Size()); err != nil {
		t.Fatal(err)
	}
	_ = f.Close()

	re, err := storage.OpenFileLog(dir, storage.FileConfig{SegmentRecords: 16})
	if err != nil {
		t.Fatalf("recovery with torn tail: %v", err)
	}
	defer re.Close()
	if hwm := re.HighWatermark(); hwm != ackedRecs {
		t.Fatalf("recovered hwm %d, want %d", hwm, ackedRecs)
	}
	got, n, err := re.ReadFrames(0, ackedRecs, nil)
	if err != nil || n != ackedRecs || !bytes.Equal(got, ackedFrames) {
		t.Fatalf("recovered %d records, %v: bytes differ from the acked appends", n, err)
	}
}

// legacySegment encodes records the way segments were written before
// they had a header and frames held batches: one big-endian
// [4]len [4]crc32-IEEE [4]klen key [8]value [8]nanos frame per record.
func legacySegment(recs []storage.Record) []byte {
	var b []byte
	for _, r := range recs {
		p := binary.BigEndian.AppendUint32(nil, uint32(len(r.Key)))
		p = append(p, r.Key...)
		p = binary.BigEndian.AppendUint64(p, math.Float64bits(r.Value))
		p = binary.BigEndian.AppendUint64(p, uint64(r.Time.UnixNano()))
		b = binary.BigEndian.AppendUint32(b, uint32(len(p)))
		b = binary.BigEndian.AppendUint32(b, crc32.ChecksumIEEE(p))
		b = append(b, p...)
	}
	return b
}

// versionOneSegment encodes records the way segments were written before
// frames had time codes: a version-1 header, then one frame per batch,
// each of tcode 0 (every batch holds a zero time among real ones).
func versionOneSegment(t *testing.T, base int64, batches ...[]storage.Record) []byte {
	b := binary.LittleEndian.AppendUint16(append([]byte(nil), "SASG"...), 1)
	b = binary.LittleEndian.AppendUint16(b, 1)
	b = binary.LittleEndian.AppendUint64(b, uint64(base))
	for _, recs := range batches {
		frame := storage.AppendRecordFrames(nil, recs)
		if frame[11] != 0 {
			t.Fatalf("batch %v framed with time code %d, want 0", recs, frame[11])
		}
		b = append(b, frame...)
	}
	return b
}

// TestSegmentUpgradeInterruptedAtEveryStep fails the one upgrade at open,
// a version-1 segment's header bump, at each of its steps: the in-place
// write of its version (torn at several lengths), its fsync. The open
// fails and each segment is the old file or the old file with version 2,
// nothing between. The next clean open finishes the job and serves every
// record.
func TestSegmentUpgradeInterruptedAtEveryStep(t *testing.T) {
	at := time.Unix(1700000000, 0).UTC()
	recs := []storage.Record{
		{Key: "k1", Value: 1.5, Time: at}, {Key: "", Value: -2}, {Key: "鍵", Value: 3, Time: at.Add(2)}, {Key: "k2", Value: 4},
	}
	segs := map[string][]byte{
		"00000000000000000000.seg": versionOneSegment(t, 0, recs[:2]),
		"00000000000000000002.seg": versionOneSegment(t, 2, recs[2:]),
	}
	served := append(storage.AppendRecordFrames(nil, recs[:2]), storage.AppendRecordFrames(nil, recs[2:])...)
	steps := map[string]DiskFaults{
		"write refused":    {FailWrites: true},
		"write torn at 1":  {FailWrites: true, TornBytes: 1},
		"write torn at 5":  {FailWrites: true, TornBytes: 5},
		"write torn at 16": {FailWrites: true, TornBytes: 16},
		"write torn at 40": {FailWrites: true, TornBytes: 40},
		"fsync fails":      {SyncErr: errors.New("injected fsync failure")},
	}
	for name, f := range steps {
		t.Run("version 1/"+name, func(t *testing.T) {
			dir := t.TempDir()
			for seg, data := range segs {
				if err := os.WriteFile(filepath.Join(dir, seg), data, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			disk := NewDisk(nil)
			disk.Set(f)
			l, err := storage.OpenFileLog(dir, storage.FileConfig{SegmentRecords: 2, FS: disk})
			if err == nil {
				_ = l.Close()
				t.Fatal("open succeeded through the fault")
			}
			for seg, data := range segs {
				got, err := os.ReadFile(filepath.Join(dir, seg))
				bumped := err == nil && len(got) == len(data) && got[4] == 2 &&
					bytes.Equal(got[:4], data[:4]) && bytes.Equal(got[5:], data[5:])
				if err != nil || !bytes.Equal(got, data) && !bumped {
					t.Fatalf("%s after the interrupted upgrade: %v, %d bytes (was %d)", seg, err, len(got), len(data))
				}
			}
			l, err = storage.OpenFileLog(dir, storage.FileConfig{SegmentRecords: 2})
			if err != nil {
				t.Fatalf("clean open: %v", err)
			}
			defer l.Close()
			got, n, err := l.ReadFrames(0, 10, nil)
			if err != nil || n != len(recs) || !bytes.Equal(got, served) {
				t.Fatalf("after the upgrade: %d records, %v", n, err)
			}
			if entries, _ := os.ReadDir(dir); len(entries) != len(segs) {
				t.Fatalf("%d files left in the directory, want the %d segments", len(entries), len(segs))
			}
			for seg := range segs {
				if data, _ := os.ReadFile(filepath.Join(dir, seg)); string(data[:4]) != "SASG" || data[4] != 2 {
					t.Fatalf("%s after the upgrade starts %x, want a version-2 header", seg, data[:min(len(data), 16)])
				}
			}
		})
	}
}

// TestOpenReadErrorLeavesFilesAlone: a read that fails part way through
// a segment (EIO) fails the open — it is not mistaken for a torn tail.
// No file is cut, dropped or rewritten, whether the segments are current
// or headerless. A clean open afterwards serves every acked record of the
// current segments, and refuses the headerless ones, touching nothing.
func TestOpenReadErrorLeavesFilesAlone(t *testing.T) {
	const total = 20
	var recs []storage.Record
	for i := 0; i < total; i++ {
		recs = append(recs, storage.Record{Key: fmt.Sprintf("k%d", i%3), Value: float64(i), Time: time.Unix(int64(i), 0).UTC()})
	}
	current := t.TempDir()
	l, err := storage.OpenFileLog(current, storage.FileConfig{SegmentRecords: 8})
	if err != nil {
		t.Fatal(err)
	}
	for at := 0; at < total; at += 4 {
		if _, err := l.AppendFrames(storage.AppendRecordFrames(nil, recs[at:at+4]), 4); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	headerless := t.TempDir()
	for at := 0; at < total; at += 10 {
		if err := os.WriteFile(filepath.Join(headerless, fmt.Sprintf("%020d.seg", at)), legacySegment(recs[at:at+10]), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for name, dir := range map[string]string{"current": current, "headerless": headerless} {
		t.Run(name, func(t *testing.T) {
			before := readDirFiles(t, dir)
			// Cut points from the segments' real sizes, so each read fails
			// short of the file: at once, inside the 16-byte header (or the
			// first legacy frame), half way through the smallest segment.
			smallest := math.MaxInt
			for _, data := range before {
				smallest = min(smallest, len(data))
			}
			for _, readBytes := range []int{0, 8, smallest / 2} {
				disk := NewDisk(nil)
				disk.Set(DiskFaults{ReadErr: syscall.EIO, ReadBytes: readBytes})
				if l, err := storage.OpenFileLog(dir, storage.FileConfig{SegmentRecords: 8, FS: disk}); !errors.Is(err, syscall.EIO) {
					if err == nil {
						_ = l.Close()
					}
					t.Fatalf("open through a read failing after %d bytes: %v, want EIO", readBytes, err)
				}
				if after := readDirFiles(t, dir); !reflect.DeepEqual(after, before) {
					t.Fatalf("files changed by an open that failed on a read after %d bytes", readBytes)
				}
			}
			l, err := storage.OpenFileLog(dir, storage.FileConfig{SegmentRecords: 8})
			if name == "headerless" {
				if err == nil {
					_ = l.Close()
					t.Fatal("clean open of headerless segments succeeded")
				}
				if after := readDirFiles(t, dir); !reflect.DeepEqual(after, before) {
					t.Fatal("files changed by the refused clean open")
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()
			if _, n, err := l.ReadFrames(0, total+1, nil); err != nil || n != total || l.HighWatermark() != total {
				t.Fatalf("clean open after the read faults: %d records, hwm %d, %v; want %d", n, l.HighWatermark(), err, total)
			}
		})
	}
}

func readDirFiles(t *testing.T, dir string) map[string]string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := map[string]string{}
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		files[e.Name()] = string(b)
	}
	return files
}

// truncateFails is a filesystem on which every truncate fails: a crash
// just before the repair of a torn tail lands.
type truncateFails struct{ storage.FS }

func (fs truncateFails) OpenFile(name string, flag int, perm os.FileMode) (storage.File, error) {
	f, err := fs.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return truncateFailsFile{f}, nil
}

type truncateFailsFile struct{ storage.File }

func (truncateFailsFile) Truncate(int64) error { return errors.New("crashed before the truncate") }

// TestTornSegmentDropsSuffixBeforeItIsRepaired: when a segment ends in a
// torn batch the segments after it go first and the repair (the cut)
// second, so a crash in between reopens to the same torn tail, never to a
// repaired segment followed by a gap the log would refuse to open over.
func TestTornSegmentDropsSuffixBeforeItIsRepaired(t *testing.T) {
	at := time.Unix(1700000000, 0).UTC()
	recs := []storage.Record{{Key: "a", Value: 1, Time: at}, {Key: "b", Value: 2, Time: at}, {Key: "c", Value: 3, Time: at}, {Key: "d", Value: 4, Time: at}}
	dir := t.TempDir()
	l, err := storage.OpenFileLog(dir, storage.FileConfig{SegmentRecords: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, batch := range [][]storage.Record{recs[:2], recs[2:3], recs[3:]} { // segments 0 (two batches) and 3
		if _, err := l.AppendFrames(storage.AppendRecordFrames(nil, batch), len(batch)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	first, second := filepath.Join(dir, "00000000000000000000.seg"), filepath.Join(dir, "00000000000000000003.seg")
	torn, err := os.ReadFile(first)
	if err != nil {
		t.Fatal(err)
	}
	torn = torn[:len(torn)-5] // the third record's batch never fully landed
	if err := os.WriteFile(first, torn, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(second); err != nil {
		t.Fatalf("no segment past the torn one: %v", err)
	}
	if l, err := storage.OpenFileLog(dir, storage.FileConfig{FS: truncateFails{storage.OSFS}}); err == nil {
		_ = l.Close()
		t.Fatal("open succeeded although the repair could not land")
	}
	if got, err := os.ReadFile(first); err != nil || !bytes.Equal(got, torn) {
		t.Fatalf("torn segment after the interrupted repair: %v, %d bytes (was %d)", err, len(got), len(torn))
	}
	if _, err := os.Stat(second); !os.IsNotExist(err) {
		t.Fatalf("segment past the torn one survived the interrupted open: %v", err)
	}
	l, err = storage.OpenFileLog(dir, storage.FileConfig{})
	if err != nil {
		t.Fatalf("clean open: %v", err)
	}
	defer l.Close()
	got, n, err := l.ReadFrames(0, 10, nil)
	if err != nil || n != 2 || !bytes.Equal(got, storage.AppendRecordFrames(nil, recs[:2])) {
		t.Fatalf("after the repair: %d records, %v; want the 2 before the torn one", n, err)
	}
}
