// Package storage is the partition-log storage engine under the broker
// tier: an append-only log of batch frames addressed by record offset,
// behind a Log interface with two implementations — the chunked
// in-memory MemLog the broker always had, and the segmented on-disk
// FileLog that makes a broker restartable (recover segments, drop a
// torn tail, rejoin the cluster).
//
// A log stores frames and nothing else (layout in frames.go): a
// record's offset IS its position, so it is never stored, and the bytes
// a producer encoded are the bytes appended, replicated and fetched —
// every hop is a memcpy. Record is the edge type: BatchBuilder and
// AppendRecordFrames encode it on the way in, and the broker package
// (which aliases the type) decodes frames back into it on the way out.
// Logs support truncation from the tail, which the cluster layer uses
// to discard a rejoining replica's divergent uncommitted records.
package storage

import (
	"errors"
	"sort"
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

// Log is one partition's append-only log of batch frames. Offsets count
// records, not frames.
//
// AppendFrames appends a chunk holding count records verbatim at
// consecutive offsets and returns the base offset; the caller vouches
// for the CRCs (ValidateFrames at the wire boundary, or its own
// builder), and the log re-walks only the structure to find frame
// boundaries, so a structurally corrupt chunk is rejected whole before
// any mutation. ReadFrames appends onto buf a chunk holding EXACTLY the
// records [offset, offset+min(max, hwm-offset)) and returns the
// extended buffer and that record count: frames wholly inside the
// range are the stored bytes, CRCs included; a frame cut by either end
// of the range is re-encoded by SliceFrames. HighWatermark is the next
// offset to be written. TruncateTo discards every record at offset >=
// hwm (a no-op when the log is already shorter), re-encoding the frame
// the cut lands in; the next append continues at hwm. Sync forces
// buffered appends to stable storage (a no-op for MemLog). Stats reports
// the log's footprint: its segment files (MemLog: chunks) and the bytes
// they hold.
type Log interface {
	AppendFrames(frames []byte, count int) (int64, error)
	ReadFrames(offset int64, max int, buf []byte) ([]byte, int, error)
	HighWatermark() int64
	TruncateTo(hwm int64) error
	Sync() error
	Close() error
	Stats() (segments int, bytes int64)
}

// readEnd resolves a ReadFrames request against the high watermark: the
// offset one past the last record to return.
func readEnd(offset int64, n int, hwm int64) (int64, error) {
	if offset < 0 || offset > hwm {
		return 0, ErrOffsetOutOfRange
	}
	return offset + min(int64(max(n, 0)), hwm-offset), nil
}

// memChunkBytes is the byte capacity of one in-memory log chunk. A
// frame larger than that gets a chunk of its own.
const memChunkBytes = 256 << 10

// memIndexBlock is the frames one block of a MemLog's index locates:
// the index grows a block at a time, so an append never copies it.
const memIndexBlock = 4096

// memFrame locates one stored frame: records from first on, at byte
// start of chunk. Its length and record count are its own header's.
type memFrame struct {
	first        int64
	chunk, start int32
}

// MemLog is the in-memory Log: fixed-capacity byte chunks holding whole
// frames (a frame never spans chunks, and appends never reallocate
// earlier history, unlike a single growing slice) plus one index entry
// per FRAME, binary-searched by offset, in blocks that are never
// reallocated either. It is the implementation behind
// broker.New() and `brokerd -data-dir ""`.
//
// Storing frames rather than Record structs is what makes the log
// zero-copy in memory too: AppendFrames and ReadFrames are memcpys, and
// a fetch response is assembled without touching a Record.
type MemLog struct {
	mu     sync.RWMutex
	chunks [][]byte
	index  [][]memFrame // blocks of memIndexBlock entries; the first grows to it
	frames int          // entries in index
	n      int64        // total records; the high watermark
}

// NewMemLog returns an empty in-memory log.
func NewMemLog() *MemLog { return &MemLog{} }

// AppendFrames implements Log: memcpy each frame of the pre-validated
// chunk into the tail chunk and index it.
func (m *MemLog) AppendFrames(frames []byte, count int) (int64, error) {
	var buf [8]span
	spans, err := frameSpans(buf[:0], frames, count)
	if err != nil {
		return 0, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	base := m.n
	for _, sp := range spans {
		k := len(m.chunks) - 1
		if k < 0 || sp.bytes > cap(m.chunks[k])-len(m.chunks[k]) {
			m.chunks = append(m.chunks, make([]byte, 0, max(memChunkBytes, sp.bytes)))
			k++
		}
		start := len(m.chunks[k])
		m.chunks[k] = append(m.chunks[k], frames[:sp.bytes]...)
		m.addFrame(memFrame{first: m.n, chunk: int32(k), start: int32(start)})
		m.n += int64(sp.count)
		frames = frames[sp.bytes:]
	}
	return base, nil
}

// addFrame appends one entry to the index, opening a block when the
// last one is full.
func (m *MemLog) addFrame(fr memFrame) {
	b := m.frames / memIndexBlock
	if b == len(m.index) {
		var blk []memFrame // the first block grows as it fills: a small log stays small
		if b > 0 {
			blk = make([]memFrame, 0, memIndexBlock)
		}
		m.index = append(m.index, blk)
	}
	m.index[b] = append(m.index[b], fr)
	m.frames++
}

// frame returns index entry i.
func (m *MemLog) frame(i int) *memFrame { return &m.index[i/memIndexBlock][i%memIndexBlock] }

// stored returns the bytes of the frame fr locates and its record count.
func (m *MemLog) stored(fr *memFrame) ([]byte, int) {
	return checkedFrame(m.chunks[fr.chunk][fr.start:])
}

// ReadFrames implements Log: whole frames are copied as stored, a frame
// the range cuts through is re-encoded.
func (m *MemLog) ReadFrames(offset int64, max int, buf []byte) ([]byte, int, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	end, err := readEnd(offset, max, m.n)
	if err != nil {
		return buf, 0, err
	}
	i := sort.Search(m.frames, func(i int) bool { return m.frame(i).first > offset }) - 1
	for at := offset; at < end; i++ {
		fr := m.frame(i)
		raw, n := m.stored(fr)
		lo, hi := int(at-fr.first), int(min(end-fr.first, int64(n)))
		if lo == 0 && hi == n {
			buf = append(buf, raw...)
		} else {
			if buf, err = SliceFrames(buf, raw, lo, hi); err != nil {
				return buf, int(at - offset), err
			}
		}
		at = fr.first + int64(hi)
	}
	return buf, int(end - offset), nil
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
	// keep counts the frames that survive; the last of them may straddle
	// the cut, and then keeps only its records below hwm.
	keep := sort.Search(m.frames, func(i int) bool { return m.frame(i).first >= hwm })
	nchunks := 0
	if keep > 0 {
		fr := m.frame(keep - 1)
		raw, n := m.stored(fr)
		if fr.first+int64(n) > hwm {
			cut, err := SliceFrames(nil, raw, 0, int(hwm-fr.first))
			if err != nil {
				return err
			}
			raw = cut // never longer than the frame it replaces, so it fits in place
		}
		m.chunks[fr.chunk] = append(m.chunks[fr.chunk][:fr.start], raw...)
		nchunks = int(fr.chunk) + 1
	}
	clear(m.chunks[nchunks:])
	m.chunks = m.chunks[:nchunks]
	blocks := (keep + memIndexBlock - 1) / memIndexBlock
	clear(m.index[blocks:])
	m.index = m.index[:blocks]
	if blocks > 0 {
		m.index[blocks-1] = m.index[blocks-1][:keep-(blocks-1)*memIndexBlock]
	}
	m.frames = keep
	m.n = hwm
	return nil
}

// Stats implements Log: the chunks held and the frame bytes in them.
func (m *MemLog) Stats() (segments int, bytes int64) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	for _, c := range m.chunks {
		bytes += int64(len(c))
	}
	return len(m.chunks), bytes
}

// Sync implements Log (no-op in memory).
func (m *MemLog) Sync() error { return nil }

// Close implements Log (no-op in memory).
func (m *MemLog) Close() error { return nil }
