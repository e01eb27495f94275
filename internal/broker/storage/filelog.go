package storage

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
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

// FileLog is the durable Log: an append-only sequence of fixed-capacity
// segment files mirroring MemLog's 4096-record chunks.
//
// Layout: the directory holds files named by the offset of their first
// record, `<base>.seg` with base zero-padded to 20 digits so the
// lexical order is the offset order. Each segment is a sequence of
// CRC-framed records reusing the wire codec's field layout:
//
//	frame   = [4]payloadLen [4]crc32(payload) payload
//	payload = [4]keyLen key [8]float64-bits(value) [8]unixNanos(time)
//
// A record's offset is its position (segment base + index within the
// segment), so nothing but the fields is stored; a per-segment sparse
// index (file position of every 64th record) keeps reads from scanning
// whole segments. The zero time.Time uses the math.MinInt64 sentinel,
// exactly as on the wire.
//
// Crash recovery: opening a log scans every segment, validating frame
// lengths and CRCs. A torn tail — a partial or corrupt frame from an
// append cut short by a crash — is truncated at the last valid record,
// and any later segments (unreachable without the torn one's records)
// are deleted. What survives is exactly the durable prefix.
//
// Durability is governed by the sync policy: SyncAlways fsyncs after
// every append (an acked record survives kill -9), SyncInterval batches
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
	// SyncInterval fsyncs on a timer (FileConfig.SyncEvery): bounded
	// loss window, near-memory append throughput.
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
	// SyncEvery is the SyncInterval flush period (default 50ms).
	SyncEvery time.Duration
	// Instruments receives durability observations (optional).
	Instruments Instruments
	// FS is the backing filesystem (default OSFS). Tests and the chaos
	// harness swap in a fault-injecting one.
	FS FS
}

// indexEvery is the sparse-index stride: one file position kept per
// this many records.
const indexEvery = 64

// frameHdrLen is the per-record on-disk overhead: length + CRC.
const frameHdrLen = 8

// maxFramePayload guards recovery against a corrupt length prefix.
const maxFramePayload = 64 << 20

// zeroTimeNanos marks the zero time.Time on disk (math.MinInt64, the
// same sentinel the wire codec uses).
const zeroTimeNanos = math.MinInt64

// segment is one open segment file.
type segment struct {
	base  int64 // offset of the first record
	count int   // records held
	size  int64 // file size in bytes
	f     File
	index []int64 // file position of records base, base+64, base+128, ...
	dirty bool    // has writes (or a truncation) not yet fsynced
}

func segName(base int64) string { return fmt.Sprintf("%020d.seg", base) }

// OpenFileLog opens (creating or recovering) the log stored in dir.
func OpenFileLog(dir string, cfg FileConfig) (*FileLog, error) {
	if cfg.SegmentRecords <= 0 {
		cfg.SegmentRecords = memChunkSize
	}
	if cfg.SyncEvery <= 0 {
		cfg.SyncEvery = 50 * time.Millisecond
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

// recover scans the segment files in offset order, validating every
// frame, building the sparse indexes, and truncating at the first torn
// or corrupt frame (dropping any segments past it).
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
	torn := false
	for _, base := range bases {
		path := filepath.Join(l.dir, segName(base))
		if torn {
			// Unreachable past a torn segment: offsets would be
			// discontiguous. Drop it.
			_ = l.cfg.FS.Remove(path)
			if c := l.cfg.Instruments.SegmentsDropped; c != nil {
				c.Inc()
			}
			continue
		}
		f, err := l.cfg.FS.OpenFile(path, os.O_RDWR, 0o644)
		if err != nil {
			return fmt.Errorf("storage: %w", err)
		}
		seg := &segment{base: base, f: f}
		validSize, err := scanSegment(f, seg)
		if err != nil {
			_ = f.Close()
			return err
		}
		if st, err := f.Stat(); err == nil && st.Size() > validSize {
			// Torn tail: cut the file back to the last whole record.
			if err := f.Truncate(validSize); err != nil {
				_ = f.Close()
				return fmt.Errorf("storage: truncate torn tail: %w", err)
			}
			torn = true
			if c := l.cfg.Instruments.TornTails; c != nil {
				c.Inc()
			}
		}
		seg.size = validSize
		if seg.count == 0 && torn {
			// The torn frame was the segment's only content.
			_ = f.Close()
			_ = l.cfg.FS.Remove(path)
			if c := l.cfg.Instruments.SegmentsDropped; c != nil {
				c.Inc()
			}
			continue
		}
		if len(l.segs) > 0 {
			prev := l.segs[len(l.segs)-1]
			if base != prev.base+int64(prev.count) {
				_ = f.Close()
				return fmt.Errorf("storage: segment %d leaves a gap after %d+%d", base, prev.base, prev.count)
			}
		}
		l.segs = append(l.segs, seg)
		l.n = base + int64(seg.count)
	}
	return nil
}

// scanSegment walks a segment file frame by frame, filling count and
// the sparse index, and returns the size of the valid prefix. A short
// or corrupt frame ends the scan without error — the caller truncates.
func scanSegment(f File, seg *segment) (int64, error) {
	r := bufio.NewReaderSize(f, 64<<10)
	scratch := make([]byte, 0, 4096)
	pos := int64(0)
	var hdr [frameHdrLen]byte
	for {
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			if err == io.EOF || err == io.ErrUnexpectedEOF {
				return pos, nil
			}
			return 0, fmt.Errorf("storage: %w", err)
		}
		plen := binary.BigEndian.Uint32(hdr[:4])
		want := binary.BigEndian.Uint32(hdr[4:])
		if plen > maxFramePayload {
			return pos, nil
		}
		if cap(scratch) < int(plen) {
			scratch = make([]byte, plen)
		}
		buf := scratch[:plen]
		if _, err := io.ReadFull(r, buf); err != nil {
			if err == io.EOF || err == io.ErrUnexpectedEOF {
				return pos, nil
			}
			return 0, fmt.Errorf("storage: %w", err)
		}
		if crc32.ChecksumIEEE(buf) != want {
			return pos, nil
		}
		if !decodePayload(buf, &Record{}) {
			return pos, nil
		}
		if seg.count%indexEvery == 0 {
			seg.index = append(seg.index, pos)
		}
		seg.count++
		pos += frameHdrLen + int64(plen)
	}
}

// decodePayload decodes one frame payload into r, returning false on a
// structurally invalid payload.
func decodePayload(buf []byte, r *Record) bool {
	if len(buf) < 20 {
		return false
	}
	klen := int(binary.BigEndian.Uint32(buf))
	if klen < 0 || 4+klen+16 != len(buf) {
		return false
	}
	r.Key = string(buf[4 : 4+klen])
	r.Value = math.Float64frombits(binary.BigEndian.Uint64(buf[4+klen:]))
	nanos := int64(binary.BigEndian.Uint64(buf[4+klen+8:]))
	if nanos == zeroTimeNanos {
		r.Time = time.Time{}
	} else {
		r.Time = time.Unix(0, nanos).UTC()
	}
	return true
}

// AppendFrames implements Log: write the pre-validated frame chunk
// verbatim, segment by segment (rolling to a fresh segment at
// capacity), fsync per policy — the frame layout IS the segment layout,
// so an append is header walks for the sparse index and one WriteAt per
// segment, on a leader and a follower alike.
func (l *FileLog) AppendFrames(frames []byte, count int) (int64, error) {
	if err := checkFrameCount(frames, count); err != nil {
		return 0, err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, ErrLogClosed
	}
	base := l.n
	for rest, remaining := frames, count; remaining > 0; {
		seg := l.tailSegment()
		if seg == nil || seg.count >= l.cfg.SegmentRecords {
			var err error
			if seg, err = l.newSegment(l.n); err != nil {
				return 0, err
			}
		}
		take := l.cfg.SegmentRecords - seg.count
		if take > remaining {
			take = remaining
		}
		pos := seg.size
		nbytes := 0
		for i := 0; i < take; i++ {
			if seg.count%indexEvery == 0 {
				seg.index = append(seg.index, pos+int64(nbytes))
			}
			nbytes += frameHdrLen + int(binary.BigEndian.Uint32(rest[nbytes:]))
			seg.count++
		}
		if _, err := seg.f.WriteAt(rest[:nbytes], pos); err != nil {
			// Roll back the failed chunk's bookkeeping, then cut the log
			// back to the pre-append watermark: a batch that spanned a
			// segment roll must not leave its first chunk behind, or a
			// producer retry of the whole batch would duplicate it.
			seg.count -= take
			for len(seg.index) > 0 && seg.index[len(seg.index)-1] >= pos {
				seg.index = seg.index[:len(seg.index)-1]
			}
			werr := fmt.Errorf("storage: append: %w", err)
			if rbErr := l.truncateToLocked(base); rbErr != nil {
				return 0, fmt.Errorf("%w (rollback also failed: %v)", werr, rbErr)
			}
			return 0, werr
		}
		seg.size = pos + int64(nbytes)
		seg.dirty = true
		l.n += int64(take)
		rest = rest[nbytes:]
		remaining -= take
	}
	l.dirty = true
	if l.cfg.Policy == SyncAlways {
		if err := l.syncLocked(); err != nil {
			return 0, err
		}
	}
	return base, nil
}

func (l *FileLog) tailSegment() *segment {
	if len(l.segs) == 0 {
		return nil
	}
	return l.segs[len(l.segs)-1]
}

func (l *FileLog) newSegment(base int64) (*segment, error) {
	f, err := l.cfg.FS.OpenFile(filepath.Join(l.dir, segName(base)), os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("storage: %w", err)
	}
	seg := &segment{base: base, f: f}
	l.segs = append(l.segs, seg)
	return seg, nil
}

// ReadFrames implements Log: append the requested records' frames onto
// buf exactly as stored — header, CRC, payload — without decoding. The
// CRC is NOT re-verified here; it rides along for the consumer (or the
// rejoining follower) to verify at its own decode boundary, so disk
// corruption is caught end to end rather than trusted after one hop.
func (l *FileLog) ReadFrames(offset int64, max int, buf []byte) ([]byte, int, error) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	if l.closed {
		return buf, 0, ErrLogClosed
	}
	if offset < 0 || offset > l.n {
		return buf, 0, ErrOffsetOutOfRange
	}
	if max < 0 {
		max = 0
	}
	end := offset + int64(max)
	if end > l.n {
		end = l.n
	}
	if offset == end {
		return buf, 0, nil
	}
	if len(l.segs) == 0 || offset < l.segs[0].base {
		return buf, 0, ErrOffsetOutOfRange // truncated-away prefix
	}
	count := 0
	si := sort.Search(len(l.segs), func(i int) bool { return l.segs[i].base > offset }) - 1
	for at := offset; at < end; si++ {
		seg := l.segs[si]
		var n int
		var err error
		buf, n, err = seg.readFrames(at, end, buf)
		if err != nil {
			return buf, count, err
		}
		count += n
		at = seg.base + int64(seg.count)
	}
	return buf, count, nil
}

// readFrames appends the frames of [offset, end) that live in this
// segment onto buf, returning the extended buffer and the frame count.
func (s *segment) readFrames(offset, end int64, buf []byte) ([]byte, int, error) {
	stop := s.base + int64(s.count)
	if end < stop {
		stop = end
	}
	rel := offset - s.base
	ie := rel / indexEvery
	if ie >= int64(len(s.index)) {
		return buf, 0, fmt.Errorf("storage: sparse index short for offset %d", offset)
	}
	pos := s.index[ie]
	skip := rel % indexEvery
	br := bufio.NewReaderSize(io.NewSectionReader(s.f, pos, s.size-pos), 32<<10)
	count := 0
	var hdr [frameHdrLen]byte
	for at := offset - skip; at < stop; at++ {
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			return buf, count, fmt.Errorf("storage: read frame at %d: %w", at, err)
		}
		plen := int(binary.BigEndian.Uint32(hdr[:4]))
		if plen > maxFramePayload {
			return buf, count, fmt.Errorf("storage: corrupt frame length at %d", at)
		}
		if at < offset {
			// Skipping from the sparse-index anchor.
			if _, err := br.Discard(plen); err != nil {
				return buf, count, fmt.Errorf("storage: read frame at %d: %w", at, err)
			}
			continue
		}
		buf = append(buf, hdr[:]...)
		fill := len(buf)
		buf = growBytes(buf, plen)
		if _, err := io.ReadFull(br, buf[fill:]); err != nil {
			return buf[:fill-frameHdrLen], count, fmt.Errorf("storage: read frame at %d: %w", at, err)
		}
		count++
	}
	return buf, count, nil
}

// HighWatermark implements Log.
func (l *FileLog) HighWatermark() int64 {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.n
}

// Stats reports the log's segment count and total bytes on disk — the
// scrape-time source of the broker's per-partition disk gauges.
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
// is cut at the record boundary. The next append continues at hwm.
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
			// Cut inside this segment: find the file position of hwm by
			// walking frames from the nearest index anchor.
			pos, err := seg.posOf(hwm)
			if err != nil {
				return err
			}
			if err := seg.f.Truncate(pos); err != nil {
				return fmt.Errorf("storage: truncate: %w", err)
			}
			seg.count = int(hwm - seg.base)
			seg.size = pos
			seg.dirty = true
			ie := (hwm - seg.base + indexEvery - 1) / indexEvery
			if ie < int64(len(seg.index)) {
				seg.index = seg.index[:ie]
			}
			keep = append(keep, seg)
		}
	}
	l.segs = keep
	l.n = hwm
	l.dirty = true
	return nil
}

// posOf returns the file position of the record at offset (mu held).
func (s *segment) posOf(offset int64) (int64, error) {
	rel := offset - s.base
	ie := rel / indexEvery
	if ie >= int64(len(s.index)) {
		return 0, fmt.Errorf("storage: sparse index short for offset %d", offset)
	}
	pos := s.index[ie]
	var hdr [4]byte
	for at := ie * indexEvery; at < rel; at++ {
		if _, err := s.f.ReadAt(hdr[:], pos); err != nil {
			return 0, fmt.Errorf("storage: %w", err)
		}
		pos += frameHdrLen + int64(binary.BigEndian.Uint32(hdr[:]))
	}
	return pos, nil
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
	t := time.NewTicker(l.cfg.SyncEvery)
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
