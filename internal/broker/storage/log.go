// Package storage is the partition-log storage engine under the broker
// tier: an append-only log of CRC frames addressed by offset, behind a
// Log interface with two implementations — the chunked in-memory MemLog
// the broker always had, and the segmented on-disk FileLog that makes a
// broker restartable (recover segments, truncate a torn tail, rejoin
// the cluster).
//
// A log stores frames and nothing else (layout in frames.go): a
// record's offset IS its position, so it is never stored and reads
// never scan, and the bytes a producer encoded are the bytes appended,
// replicated and fetched — every hop is a memcpy. Record is the edge
// type: AppendFrame/AppendRecordFrames encode it on the way in, and the
// broker package (which aliases the type) decodes frames back into it
// on the way out. Logs support truncation from the tail, which the
// cluster layer uses to discard a rejoining replica's divergent
// uncommitted records.
package storage

import (
	"errors"
	"sync"
	"time"
)

// Record is one message in a partition log.
type Record struct {
	Topic     string    `json:"topic"`
	Partition int       `json:"partition"`
	Offset    int64     `json:"offset"`
	Key       string    `json:"key"`
	Value     float64   `json:"value"`
	Time      time.Time `json:"time"`
}

// Errors returned by log operations.
var (
	ErrOffsetOutOfRange = errors.New("broker: offset out of range")
	ErrLogClosed        = errors.New("broker: log closed")
)

// Log is one partition's append-only log of CRC frames.
//
// AppendFrames appends a chunk of count frames verbatim at consecutive
// offsets and returns the base offset; the caller vouches for the CRCs
// (ValidateFrames at the wire boundary, or its own AppendFrame), and
// the log re-walks only the structure to find record boundaries, so a
// structurally corrupt chunk is rejected whole before any mutation.
// ReadFrames appends up to max records' frames starting at offset onto
// buf and returns the extended buffer and the record count — the bytes
// are exactly what AppendFrames stored, CRCs included. HighWatermark is
// the next offset to be written. TruncateTo discards every record at
// offset >= hwm (a no-op when the log is already shorter); the next
// append continues at hwm. Sync forces buffered appends to stable
// storage (a no-op for MemLog).
type Log interface {
	AppendFrames(frames []byte, count int) (int64, error)
	ReadFrames(offset int64, max int, buf []byte) ([]byte, int, error)
	HighWatermark() int64
	TruncateTo(hwm int64) error
	Sync() error
	Close() error
}

// memChunkSize is the record capacity of one in-memory log chunk,
// mirrored by FileLog's default segment capacity.
const memChunkSize = 4096

// memChunk is one fixed-capacity chunk of encoded frames: buf holds up
// to memChunkSize consecutive frames, ends[i] is the byte offset in buf
// just past frame i (so frame i spans buf[ends[i-1]:ends[i]]).
type memChunk struct {
	buf  []byte
	ends []int
}

// MemLog is the in-memory Log: fixed-capacity chunks of ENCODED frames
// (the same CRC framing FileLog writes to disk), bulk appends into the
// tail chunk (never reallocating earlier history, unlike a single
// growing slice), and reads that locate their chunk by division:
// nothing is ever dropped from the head, so every chunk but the last is
// full and record i sits in chunk i/memChunkSize. It is the
// implementation behind broker.New() and `brokerd -data-dir ""`.
//
// Storing frames rather than Record structs is what makes the log
// zero-copy in memory too: AppendFrames and ReadFrames are memcpys, and
// a fetch response is assembled without touching a Record.
type MemLog struct {
	mu     sync.RWMutex
	chunks []*memChunk
	n      int64 // total records; the high watermark
}

// NewMemLog returns an empty in-memory log.
func NewMemLog() *MemLog { return &MemLog{} }

// tailChunk returns the chunk accepting the next append (mu held). A
// fresh chunk preallocates its frame buffer to the size the previous
// chunk ended at — under a steady record shape the buffer never
// regrows, so appends are single memcpys instead of repeated
// reallocation copies.
func (m *MemLog) tailChunk() *memChunk {
	if k := len(m.chunks); k == 0 || len(m.chunks[k-1].ends) == memChunkSize {
		hint := 0
		if k > 0 {
			hint = len(m.chunks[k-1].buf)
		}
		m.chunks = append(m.chunks, &memChunk{buf: make([]byte, 0, hint), ends: make([]int, 0, memChunkSize)})
	}
	return m.chunks[len(m.chunks)-1]
}

// AppendFrames implements Log: memcpy the pre-validated chunk into the
// tail chunks — one bulk copy per run of frames landing in the same
// chunk (a per-frame append would pay a slice regrow on every record),
// with a cheap header walk to record the frame boundaries.
func (m *MemLog) AppendFrames(frames []byte, count int) (int64, error) {
	if err := checkFrameCount(frames, count); err != nil {
		return 0, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	base := m.n
	rest := frames
	for remaining := count; remaining > 0; {
		c := m.tailChunk()
		take := memChunkSize - len(c.ends)
		if take > remaining {
			take = remaining
		}
		off := len(c.buf)
		nbytes := 0
		for i := 0; i < take; i++ {
			nbytes += frameSize(rest[nbytes:])
			c.ends = append(c.ends, off+nbytes)
		}
		c.buf = append(c.buf, rest[:nbytes]...)
		rest = rest[nbytes:]
		remaining -= take
	}
	m.n = base + int64(count)
	return base, nil
}

// ReadFrames implements Log: bulk-copy the requested frames onto buf —
// whole runs per chunk, no per-record work at all.
func (m *MemLog) ReadFrames(offset int64, max int, buf []byte) ([]byte, int, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if offset < 0 || offset > m.n {
		return buf, 0, ErrOffsetOutOfRange
	}
	if max < 0 {
		max = 0
	}
	end := offset + int64(max)
	if end > m.n {
		end = m.n
	}
	count := 0
	for at := offset; at < end; {
		c := m.chunks[at/memChunkSize]
		ri := int(at % memChunkSize)
		take := len(c.ends) - ri
		if int64(take) > end-at {
			take = int(end - at)
		}
		start := 0
		if ri > 0 {
			start = c.ends[ri-1]
		}
		buf = append(buf, c.buf[start:c.ends[ri+take-1]]...)
		count += take
		at += int64(take)
	}
	return buf, count, nil
}

// HighWatermark implements Log.
func (m *MemLog) HighWatermark() int64 {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.n
}

// TruncateTo implements Log.
func (m *MemLog) TruncateTo(hwm int64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if hwm < 0 {
		hwm = 0
	}
	if hwm >= m.n {
		return nil
	}
	full := int(hwm / memChunkSize)
	rem := int(hwm % memChunkSize)
	chunks := m.chunks[:full]
	if rem > 0 {
		tail := m.chunks[full]
		tail.buf = tail.buf[:tail.ends[rem-1]]
		tail.ends = tail.ends[:rem]
		chunks = append(chunks, tail)
	}
	m.chunks = chunks
	m.n = hwm
	return nil
}

// Sync implements Log (no-op in memory).
func (m *MemLog) Sync() error { return nil }

// Close implements Log (no-op in memory).
func (m *MemLog) Close() error { return nil }
