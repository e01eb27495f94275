package faults

import (
	"bytes"
	"errors"
	"fmt"
	mrand "math/rand/v2"
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
	tail := storage.AppendFrame(nil, &storage.Record{Key: "tail", Value: 1})
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
		frame := storage.AppendFrame(nil, &storage.Record{Key: fmt.Sprintf("ok%d", i), Value: float64(i)})
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
	_, err = log.AppendFrames(storage.AppendFrame(nil, &storage.Record{Key: "torn", Value: 99}), 1)
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
