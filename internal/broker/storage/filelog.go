package storage

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"streamapprox/internal/metrics"
)

// Instruments carries the storage engine's observability hooks: the
// fsync-latency histogram and the crash-recovery counters. Every field
// is optional; nil instruments cost nothing.
type Instruments struct {
	// FsyncSeconds observes the latency of each fsync pass over the
	// dirty segments (the tail of every SyncAlways append).
	FsyncSeconds *metrics.Histogram
	// TornTails counts torn segment tails truncated during recovery —
	// partial frames from an append cut short by a crash.
	TornTails *metrics.Counter
	// SegmentsDropped counts whole segment files deleted during
	// recovery because they sat past a torn tail.
	SegmentsDropped *metrics.Counter
}

// FileLog is the durable Log: an append-only sequence of segment files.
//
// Layout: the directory holds files named by the offset of their first
// record, `<base>.seg` with base zero-padded to 20 digits so the
// lexical order is the offset order. A segment is a 16-byte header —
//
//	[4]"SASG" [2]format version [2]checksum kind [8]base offset   (little-endian)
//
// — followed by whole batch frames exactly as they arrived (layout in
// frames.go). A frame never spans segments: a segment rolls BEFORE the
// frame that would start at or past SegmentRecords, so it may end a
// little over. A record's offset is its position (segment base + index
// within the segment), so nothing but the frames is stored; a
// per-segment sparse index (file position of a frame at least every
// indexEvery records) keeps reads from scanning whole segments.
//
// Crash recovery: opening a log scans every segment, validating each
// batch whole (structure + CRC). A torn tail — a partial or corrupt
// batch from an append cut short by a crash — is dropped whole (it was
// never acked) by truncating the file at the last valid batch, and any
// later segments (unreachable without the torn one's records) are
// deleted. What survives is exactly the durable prefix.
//
// A log reads its segment version and the one before it. A version-2
// header is one written before frames packed their ids and scaled their
// times: its frames are in layouts this build's decoder reads as they
// are, and recover bumps the header to version 3 in place (one byte
// changes, then fsync) before the first append — so a build that knows
// only version 2 refuses the segment instead of reading compact frames
// as a torn tail. Any other version — version 1, whose frames predate
// time codes, or a headerless segment written before segments had a
// header — fails the open and leaves every file as it was.
//
// Durability is governed by the sync policy: SyncAlways fsyncs after
// every append (an acked batch survives kill -9), SyncInterval batches
// fsyncs on a timer, SyncNone leaves flushing to the OS.
type FileLog struct {
	dir string
	cfg FileConfig

	mu    sync.RWMutex
	segs  []*segment
	n     int64 // high watermark; next append offset
	dirty bool  // unsynced appends (SyncInterval bookkeeping)

	done      chan struct{}
	wg        sync.WaitGroup
	closeOnce sync.Once
	closed    bool
}

// SyncPolicy selects when appended records are fsynced.
type SyncPolicy int

const (
	// SyncAlways fsyncs after every append: an acknowledged record
	// survives process death. The no-loss crash guarantee requires it.
	SyncAlways SyncPolicy = iota
	// SyncInterval fsyncs on a timer (every syncEvery): bounded loss
	// window, near-memory append throughput.
	SyncInterval
	// SyncNone never fsyncs explicitly; the OS flushes when it wants.
	SyncNone
)

// ParseSyncPolicy parses the flag form: "always", "interval", "none".
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "always", "":
		return SyncAlways, nil
	case "interval":
		return SyncInterval, nil
	case "none":
		return SyncNone, nil
	}
	return SyncAlways, fmt.Errorf("storage: unknown fsync policy %q (want always, interval or none)", s)
}

func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncInterval:
		return "interval"
	default:
		return "none"
	}
}

// FileConfig tunes a FileLog.
type FileConfig struct {
	// SegmentRecords is the record capacity of one segment file
	// (default 4096, mirroring the in-memory chunk size).
	SegmentRecords int
	// Policy is the fsync policy (default SyncAlways).
	Policy SyncPolicy
	// Instruments receives durability observations (optional).
	Instruments Instruments
	// FS is the backing filesystem (default OSFS). Tests and the chaos
	// harness swap in a fault-injecting one.
	FS FS
}

// syncEvery is the SyncInterval flush period.
const syncEvery = 50 * time.Millisecond

// indexEvery is the sparse-index stride: a frame is indexed when it
// starts at least this many records past the last indexed one.
const indexEvery = 64

// Segment header fields.
const (
	segMagic   = "SASG"
	segVersion = 3 // 2: ids one byte each, no texp; 1: every frame tcode 0
	segCRC32C  = 1 // checksum kind: CRC-32C (Castagnoli) per batch frame
	segHdrLen  = 16
)

func appendSegHeader(b []byte, base int64) []byte {
	b = append(b, segMagic...)
	b = le.AppendUint16(b, segVersion)
	b = le.AppendUint16(b, segCRC32C)
	return le.AppendUint64(b, uint64(base))
}

// segIndex anchors a scan: the frame starting at record offset first
// sits at file position pos.
type segIndex struct{ first, pos int64 }

// segment is one open segment file.
type segment struct {
	base  int64 // offset of the first record
	count int   // records held
	size  int64 // file size in bytes
	f     File
	index []segIndex
	dirty bool // has writes (or a truncation) not yet fsynced
	old   bool // its header says segVersion-1 until recover bumps it
}

func segName(base int64) string { return fmt.Sprintf("%020d.seg", base) }

// noteFrame records that a frame starting at record offset first was
// written at pos, indexing it when the stride says so.
func (s *segment) noteFrame(first, pos int64) {
	if k := len(s.index); k == 0 || first-s.index[k-1].first >= indexEvery {
		s.index = append(s.index, segIndex{first, pos})
	}
}

// OpenFileLog opens (creating or recovering) the log stored in dir.
func OpenFileLog(dir string, cfg FileConfig) (*FileLog, error) {
	if cfg.SegmentRecords <= 0 {
		cfg.SegmentRecords = 4096
	}
	if cfg.FS == nil {
		cfg.FS = OSFS
	}
	if err := cfg.FS.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("storage: %w", err)
	}
	l := &FileLog{dir: dir, cfg: cfg, done: make(chan struct{})}
	if err := l.recover(); err != nil {
		l.closeSegs()
		return nil, err
	}
	if cfg.Policy == SyncInterval {
		l.wg.Add(1)
		go l.syncLoop()
	}
	return l, nil
}

// recover opens the segment files in offset order — validating every
// batch, building the sparse indexes — and stops at the first torn or
// corrupt batch, which openSegment cuts away along with every segment
// past it.
func (l *FileLog) recover() error {
	entries, err := l.cfg.FS.ReadDir(l.dir)
	if err != nil {
		return fmt.Errorf("storage: %w", err)
	}
	var bases []int64
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".seg") {
			continue
		}
		base, err := strconv.ParseInt(strings.TrimSuffix(name, ".seg"), 10, 64)
		if err != nil {
			continue // foreign file; leave it alone
		}
		bases = append(bases, base)
	}
	sort.Slice(bases, func(i, j int) bool { return bases[i] < bases[j] })
	for i, base := range bases {
		seg, torn, err := l.openSegment(base, bases[i+1:])
		if err != nil {
			return err
		}
		if seg != nil {
			if base != l.n && len(l.segs) > 0 {
				_ = seg.f.Close()
				return fmt.Errorf("storage: segment %d leaves a gap after offset %d", base, l.n)
			}
			l.segs = append(l.segs, seg)
			l.n = base + int64(seg.count)
		}
		if torn {
			break
		}
	}
	// Headers of the version before are bumped once every segment has been
	// read, so an open that fails on a later segment has written nothing.
	for _, seg := range l.segs {
		if !seg.old {
			continue
		}
		_, err := seg.f.WriteAt(appendSegHeader(nil, seg.base)[4:6], 4)
		if err == nil {
			err = seg.f.Sync()
		}
		if err != nil {
			return fmt.Errorf("storage: upgrade %s header: %w", seg.f.Name(), err)
		}
	}
	return nil
}

func (l *FileLog) segPath(base int64) string { return filepath.Join(l.dir, segName(base)) }

// dropSegment deletes a segment file recovery found unreachable.
func (l *FileLog) dropSegment(base int64) {
	_ = l.cfg.FS.Remove(l.segPath(base))
	if c := l.cfg.Instruments.SegmentsDropped; c != nil {
		c.Inc()
	}
}

// openSegment opens the segment file at base and validates it whole. A
// torn tail — the file ends in a partial or corrupt batch — is cut away,
// but only after every segment in later (unreachable without the torn
// records: offsets would be discontiguous) is deleted, so a crash in
// between still finds the torn tail at the next open rather than a gap.
// seg is nil when nothing of the file survives. A read error or a header
// this build cannot read fails the open and leaves every file as it was.
func (l *FileLog) openSegment(base int64, later []int64) (seg *segment, torn bool, err error) {
	path := l.segPath(base)
	f, err := l.cfg.FS.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return nil, false, fmt.Errorf("storage: %w", err)
	}
	defer func() {
		if seg == nil || seg.f != f {
			_ = f.Close()
		}
	}()
	var data []byte
	st, err := f.Stat()
	if err == nil {
		data = make([]byte, st.Size())
		_, err = io.ReadFull(io.NewSectionReader(f, 0, st.Size()), data)
	}
	if err != nil {
		return nil, false, fmt.Errorf("storage: read %s: %w", path, err)
	}
	if len(data) < segHdrLen {
		// Cut short while being created: it never held a batch.
		l.dropSegment(base)
		return nil, false, nil
	}
	s := &segment{base: base, f: f}
	if string(data[:segHdrLen]) == string(make([]byte, segHdrLen)) {
		// Cut short while being created, its header never written: it is
		// a torn tail that never held a batch.
		torn = true
	} else if err := s.scan(data); err != nil {
		return nil, false, err
	} else {
		torn = s.size < int64(len(data))
	}
	if torn {
		for _, b := range later {
			l.dropSegment(b)
		}
		if c := l.cfg.Instruments.TornTails; c != nil {
			c.Inc()
		}
	}
	switch {
	case torn && s.count == 0:
		// The torn batch was the segment's only content.
		l.dropSegment(base)
		return nil, true, nil
	case torn:
		if err := f.Truncate(s.size); err != nil {
			return nil, false, fmt.Errorf("storage: truncate torn tail: %w", err)
		}
	}
	return s, torn, nil
}

// scan checks the header of the segment whose file holds data — refusing
// a version outside the two it reads, and noting an older header for
// recover to bump — then walks it batch by batch, validating each whole
// and filling count, the sparse index and size — the end of the valid
// prefix: a short or corrupt batch ends the scan without error, and the
// caller truncates.
func (s *segment) scan(data []byte) error {
	version, headerless := le.Uint16(data[4:]), string(data[:len(segMagic)]) != segMagic
	if headerless {
		version = 0
	}
	if version != segVersion-1 && version != segVersion {
		note := ""
		if headerless {
			note = " (headerless)"
		}
		return fmt.Errorf("storage: segment %s version %d%s: this build reads versions %d and %d; commit b79a451 is the last to upgrade version 1, and commit 1338931 an older one",
			s.f.Name(), version, note, segVersion-1, segVersion)
	}
	want := appendSegHeader(nil, s.base)
	s.old = string(data[:segHdrLen]) == string(slices.Concat(want[:4], []byte{segVersion - 1, 0}, want[6:]))
	if !s.old && string(data[:segHdrLen]) != string(want) {
		return fmt.Errorf("storage: segment %s: header %x is not format %d / checksum %d / base %d",
			s.f.Name(), data[:segHdrLen], segVersion, segCRC32C, s.base)
	}
	s.size = segHdrLen
	var f Frame
	for rest := data[segHdrLen:]; len(rest) > 0; rest = rest[len(f.Raw):] {
		if f.Parse(rest) != nil || f.check() != nil {
			break
		}
		s.noteFrame(s.base+int64(s.count), s.size)
		s.count += f.Count
		s.size += int64(len(f.Raw))
	}
	return nil
}

// AppendFrames implements Log: write the pre-validated chunk verbatim,
// whole frames per segment (rolling to a fresh segment at capacity),
// fsync per policy — the frame layout IS the segment layout, so an
// append is a header walk for the sparse index and one WriteAt per
// segment, on a leader and a follower alike.
func (l *FileLog) AppendFrames(frames []byte, count int) (int64, error) {
	var buf [8]span
	spans, err := frameSpans(buf[:0], frames, count)
	if err != nil {
		return 0, err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, ErrLogClosed
	}
	base := l.n
	for len(spans) > 0 {
		var seg *segment // the tail
		if k := len(l.segs); k > 0 {
			seg = l.segs[k-1]
		}
		if seg == nil || seg.count >= l.cfg.SegmentRecords {
			if seg, err = l.newSegment(l.n); err != nil {
				return 0, l.rollback(base, err)
			}
		}
		nindex, nbytes, took := len(seg.index), 0, 0
		for len(spans) > 0 && seg.count+took < l.cfg.SegmentRecords {
			seg.noteFrame(l.n+int64(took), seg.size+int64(nbytes))
			nbytes += spans[0].bytes
			took += spans[0].count
			spans = spans[1:]
		}
		if _, err := seg.f.WriteAt(frames[:nbytes], seg.size); err != nil {
			seg.index = seg.index[:nindex]
			_ = seg.f.Truncate(seg.size) // whatever part of the write landed
			return 0, l.rollback(base, fmt.Errorf("storage: append: %w", err))
		}
		seg.size += int64(nbytes)
		seg.count += took
		seg.dirty = true
		l.n += int64(took)
		frames = frames[nbytes:]
	}
	l.dirty = true
	if l.cfg.Policy == SyncAlways {
		if err := l.syncLocked(); err != nil {
			return 0, err
		}
	}
	return base, nil
}

// rollback cuts the log back to the pre-append watermark after a failed
// append and returns the failure: a batch that spanned a segment roll
// must not leave its first chunk behind, or a producer retry of the
// whole batch would duplicate it.
func (l *FileLog) rollback(base int64, werr error) error {
	if err := l.truncateToLocked(base); err != nil {
		return fmt.Errorf("%w (rollback also failed: %v)", werr, err)
	}
	return werr
}

func (l *FileLog) newSegment(base int64) (*segment, error) {
	path := l.segPath(base)
	f, err := l.cfg.FS.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("storage: %w", err)
	}
	if _, err := f.WriteAt(appendSegHeader(nil, base), 0); err != nil {
		_ = f.Close()
		_ = l.cfg.FS.Remove(path)
		return nil, fmt.Errorf("storage: %w", err)
	}
	seg := &segment{base: base, size: segHdrLen, f: f, dirty: true}
	l.segs = append(l.segs, seg)
	return seg, nil
}

// ReadFrames implements Log: frames wholly inside the range are
// appended onto buf exactly as stored — header, CRC, body — and a frame
// the range cuts through is re-encoded. A stored CRC is NOT re-verified
// here; it rides along for the consumer (or the rejoining follower) to
// verify at its own decode boundary, so disk corruption is caught end
// to end rather than trusted after one hop.
func (l *FileLog) ReadFrames(offset int64, max int, buf []byte) ([]byte, int, error) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	if l.closed {
		return buf, 0, ErrLogClosed
	}
	end, err := readEnd(offset, max, l.n)
	if err != nil || offset == end {
		return buf, 0, err
	}
	if len(l.segs) == 0 || offset < l.segs[0].base {
		return buf, 0, ErrOffsetOutOfRange // truncated-away prefix
	}
	si := sort.Search(len(l.segs), func(i int) bool { return l.segs[i].base > offset }) - 1
	for at := offset; at < end; si++ {
		seg := l.segs[si]
		stop := min(end, seg.base+int64(seg.count))
		stored, first, _, err := seg.load(at, stop)
		if err == nil {
			buf, err = SliceFrames(buf, stored, int(at-first), int(stop-first))
		}
		if err != nil {
			return buf, 0, err
		}
		at = stop
	}
	return buf, int(end - offset), nil
}

// load reads the stored frames around records [offset, stop) — from the
// index anchor at or before offset to the anchor at or after stop (the
// end of the segment when there is none) — and returns them with the
// record offset and file position they start at.
func (s *segment) load(offset, stop int64) (stored []byte, first, pos int64, err error) {
	k := sort.Search(len(s.index), func(i int) bool { return s.index[i].first > offset }) - 1
	if k < 0 {
		return nil, 0, 0, fmt.Errorf("storage: sparse index short for offset %d", offset)
	}
	end := s.size
	if e := sort.Search(len(s.index), func(i int) bool { return s.index[i].first >= stop }); e < len(s.index) {
		end = s.index[e].pos
	}
	first, pos = s.index[k].first, s.index[k].pos
	stored = make([]byte, end-pos)
	if _, err := s.f.ReadAt(stored, pos); err != nil {
		return nil, 0, 0, fmt.Errorf("storage: read frames at %d: %w", offset, err)
	}
	return stored, first, pos, nil
}

// HighWatermark implements Log.
func (l *FileLog) HighWatermark() int64 {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.n
}

// Stats implements Log: the segment files and their bytes on disk.
func (l *FileLog) Stats() (segments int, bytes int64) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	for _, seg := range l.segs {
		bytes += seg.size
	}
	return len(l.segs), bytes
}

// TruncateTo implements Log: discard every record at offset >= hwm.
// Whole segments past the point are deleted; the segment containing it
// is cut at the frame boundary, or — when hwm falls inside a frame —
// that frame is rewritten holding only its records below hwm. The next
// append continues at hwm.
func (l *FileLog) TruncateTo(hwm int64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrLogClosed
	}
	if err := l.truncateToLocked(hwm); err != nil {
		return err
	}
	if l.cfg.Policy == SyncAlways {
		return l.syncLocked()
	}
	return nil
}

// truncateToLocked is TruncateTo's body (mu held, no fsync).
func (l *FileLog) truncateToLocked(hwm int64) error {
	if hwm < 0 {
		hwm = 0
	}
	if hwm >= l.n {
		return nil
	}
	keep := l.segs[:0]
	for _, seg := range l.segs {
		switch {
		case seg.base+int64(seg.count) <= hwm:
			keep = append(keep, seg)
		case seg.base >= hwm:
			name := seg.f.Name()
			_ = seg.f.Close()
			if err := l.cfg.FS.Remove(name); err != nil {
				return fmt.Errorf("storage: truncate: %w", err)
			}
		default:
			if err := seg.truncateTo(hwm); err != nil {
				return err
			}
			keep = append(keep, seg)
		}
	}
	l.segs = keep
	l.n = hwm
	l.dirty = true
	return nil
}

// truncateTo cuts the segment (base < hwm < base+count) back to hwm:
// the frames from the index anchor before hwm are written back holding
// only the records below it — the same bytes, but for a frame hwm falls
// inside, which is re-encoded — and the file ends there. A crash between
// the write and the cut leaves a torn tail that recovery drops, and the
// records of the cut frame with it: a rejoin, the only caller that cuts
// inside a frame, re-fetches them from the leader.
func (s *segment) truncateTo(hwm int64) error {
	stored, first, pos, err := s.load(hwm-1, hwm)
	if err != nil {
		return err
	}
	kept, err := SliceFrames(nil, stored, 0, int(hwm-first))
	if err != nil {
		return err
	}
	if _, err = s.f.WriteAt(kept, pos); err == nil {
		err = s.f.Truncate(pos + int64(len(kept)))
	}
	if err != nil {
		return fmt.Errorf("storage: truncate: %w", err)
	}
	s.count, s.size, s.dirty = int(hwm-s.base), pos+int64(len(kept)), true
	for k := len(s.index); k > 0 && s.index[k-1].first >= hwm; k-- {
		s.index = s.index[:k-1]
	}
	return nil
}

// Sync implements Log: fsync every segment with unflushed writes.
// Usually that is just the tail, but an append that fills a segment
// and rolls into a fresh one dirties BOTH — syncing only the tail
// would leave the filled segment's last records in the page cache, and
// a crash would tear them (taking every later segment with them at
// recovery).
func (l *FileLog) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrLogClosed
	}
	return l.syncLocked()
}

func (l *FileLog) syncLocked() error {
	start := time.Now()
	synced := false
	for _, seg := range l.segs {
		if !seg.dirty {
			continue
		}
		if err := seg.f.Sync(); err != nil {
			return fmt.Errorf("storage: sync: %w", err)
		}
		seg.dirty = false
		synced = true
	}
	l.dirty = false
	if synced {
		if h := l.cfg.Instruments.FsyncSeconds; h != nil {
			h.Observe(time.Since(start).Seconds())
		}
	}
	return nil
}

func (l *FileLog) syncLoop() {
	defer l.wg.Done()
	t := time.NewTicker(syncEvery)
	defer t.Stop()
	for {
		select {
		case <-l.done:
			return
		case <-t.C:
		}
		l.mu.Lock()
		if l.dirty && !l.closed {
			_ = l.syncLocked()
		}
		l.mu.Unlock()
	}
}

// Close implements Log: final sync, stop the flush loop, close files.
func (l *FileLog) Close() error {
	var err error
	l.closeOnce.Do(func() {
		close(l.done)
		l.wg.Wait()
		l.mu.Lock()
		err = l.syncLocked()
		l.closeSegs()
		l.closed = true
		l.mu.Unlock()
	})
	return err
}

func (l *FileLog) closeSegs() {
	for _, seg := range l.segs {
		_ = seg.f.Close()
	}
}
