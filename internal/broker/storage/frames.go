package storage

// Raw-frame chunk helpers: the zero-copy currency of the data plane.
//
// A "frame chunk" is a byte slice holding consecutive CRC-framed records
// in exactly the segment file layout (see FileLog):
//
//	frame   = [4]payloadLen [4]crc32(payload) payload
//	payload = [4]keyLen key [8]float64-bits(value) [8]unixNanos(time)
//
// Because the wire codec's record batch uses the same field layout, a
// chunk validated once at the wire decode boundary can be appended to a
// log, forwarded leader→follower, and served back to consumers without
// ever being re-encoded — every hop is a memcpy. Offsets are never part
// of a frame (a record's offset is its position in the log), which is
// what makes verbatim forwarding possible: the same bytes are valid at
// any base offset.
//
// Trust model: ValidateFrames is the one full check (structure + CRC);
// it runs where bytes enter the process. Everything downstream —
// AppendFrames, SkipFrames, FrameIter, FrameFields — re-walks structure
// only (cheap: header arithmetic), so corrupt lengths can never walk out
// of bounds, while the CRC is carried along untouched for the next
// process to verify.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"time"
)

// minFramePayload is the payload size of a record with an empty key:
// keyLen + value bits + time nanos.
const minFramePayload = 4 + 8 + 8

// Frame chunk errors.
var (
	ErrBadFrame = errors.New("storage: malformed record frame")
	ErrFrameCRC = errors.New("storage: record frame CRC mismatch")
)

// AppendFrame appends one record's CRC frame to b and returns the
// extended slice — the one encoder: every frame in a log, on the wire
// or on disk was written here. Only key, value and time are framed (a
// record's topic, partition and offset are where it is stored). The
// inverse of FrameFields.
func AppendFrame(b []byte, r *Record) []byte {
	plen := 4 + len(r.Key) + 16
	b = binary.BigEndian.AppendUint32(b, uint32(plen))
	crcAt := len(b)
	b = binary.BigEndian.AppendUint32(b, 0) // CRC placeholder
	payloadAt := len(b)
	b = binary.BigEndian.AppendUint32(b, uint32(len(r.Key)))
	b = append(b, r.Key...)
	b = binary.BigEndian.AppendUint64(b, math.Float64bits(r.Value))
	nanos := int64(zeroTimeNanos)
	if !r.Time.IsZero() {
		nanos = r.Time.UnixNano()
	}
	b = binary.BigEndian.AppendUint64(b, uint64(nanos))
	binary.BigEndian.PutUint32(b[crcAt:], crc32.ChecksumIEEE(b[payloadAt:]))
	return b
}

// AppendRecordFrames encodes a whole record batch as one frame chunk
// appended to b — where records enter the frame path.
func AppendRecordFrames(b []byte, recs []Record) []byte {
	for i := range recs {
		b = AppendFrame(b, &recs[i])
	}
	return b
}

// ValidateFrames fully checks a frame chunk — header bounds, payload
// shape, and CRC of every frame — and returns the frame count. This is
// the single validation gate of the zero-copy path: bytes that pass it
// are safe to append and forward verbatim.
func ValidateFrames(b []byte) (int, error) {
	count := 0
	for off := 0; off < len(b); {
		if len(b)-off < frameHdrLen {
			return count, ErrBadFrame
		}
		plen := int(binary.BigEndian.Uint32(b[off:]))
		want := binary.BigEndian.Uint32(b[off+4:])
		if plen < minFramePayload || plen > maxFramePayload || len(b)-off-frameHdrLen < plen {
			return count, ErrBadFrame
		}
		payload := b[off+frameHdrLen : off+frameHdrLen+plen]
		if crc32.ChecksumIEEE(payload) != want {
			return count, ErrFrameCRC
		}
		if klen := int(binary.BigEndian.Uint32(payload)); klen < 0 || 4+klen+16 != plen {
			return count, ErrBadFrame
		}
		count++
		off += frameHdrLen + plen
	}
	return count, nil
}

// CountFrames walks a chunk's frame structure (no CRC work) and returns
// the frame count. Logs use it to pre-check boundaries before mutating,
// so a structurally corrupt chunk is rejected without partial appends.
func CountFrames(b []byte) (int, error) {
	count := 0
	for off := 0; off < len(b); {
		n := frameSize(b[off:])
		if n < 0 {
			return count, ErrBadFrame
		}
		count++
		off += n
	}
	return count, nil
}

// SkipFrames returns b with its first n frames removed — how the
// replicate path trims an already-applied duplicate prefix at frame
// boundaries without decoding.
func SkipFrames(b []byte, n int) ([]byte, error) {
	for ; n > 0; n-- {
		sz := frameSize(b)
		if sz < 0 {
			return nil, ErrBadFrame
		}
		b = b[sz:]
	}
	return b, nil
}

// frameSize returns the byte length of the frame opening b, or -1 when
// the header is short or out of bounds.
func frameSize(b []byte) int {
	if len(b) < frameHdrLen {
		return -1
	}
	plen := int(binary.BigEndian.Uint32(b))
	if plen < minFramePayload || plen > maxFramePayload || len(b)-frameHdrLen < plen {
		return -1
	}
	return frameHdrLen + plen
}

// FrameIter iterates a frame chunk structurally, exposing each whole
// frame (header included, for verbatim forwarding) and its payload (for
// field access). Zero value is done; construct with IterFrames.
type FrameIter struct {
	rest    []byte
	frame   []byte
	payload []byte
	err     error
}

// IterFrames returns an iterator over the frames of b.
func IterFrames(b []byte) FrameIter { return FrameIter{rest: b} }

// Next advances to the next frame, returning false at the end of the
// chunk or on structural corruption (check Err to tell apart).
func (it *FrameIter) Next() bool {
	if it.err != nil || len(it.rest) == 0 {
		return false
	}
	sz := frameSize(it.rest)
	if sz < 0 {
		it.err = ErrBadFrame
		return false
	}
	it.frame = it.rest[:sz]
	it.payload = it.frame[frameHdrLen:]
	it.rest = it.rest[sz:]
	return true
}

// Frame returns the current whole frame, header and CRC included.
func (it *FrameIter) Frame() []byte { return it.frame }

// Payload returns the current frame's payload.
func (it *FrameIter) Payload() []byte { return it.payload }

// Err returns the structural error that stopped iteration, if any.
func (it *FrameIter) Err() error { return it.err }

// FrameKey returns the key bytes of a structurally valid frame payload
// (as produced by FrameIter) — enough for partition routing without
// allocating a string.
func FrameKey(payload []byte) []byte {
	klen := int(binary.BigEndian.Uint32(payload))
	return payload[4 : 4+klen]
}

// FrameFields splits a structurally valid frame payload into its raw
// fields: key bytes, float64 value bits, and the time-nanos sentinel
// form (see TimeFromNanos).
func FrameFields(payload []byte) (key []byte, valueBits uint64, nanos int64) {
	klen := int(binary.BigEndian.Uint32(payload))
	return payload[4 : 4+klen],
		binary.BigEndian.Uint64(payload[4+klen:]),
		int64(binary.BigEndian.Uint64(payload[4+klen+8:]))
}

// TimeFromNanos converts a frame's time field to a time.Time, mapping
// the math.MinInt64 sentinel back to the zero time.
func TimeFromNanos(nanos int64) time.Time {
	if nanos == zeroTimeNanos {
		return time.Time{}
	}
	return time.Unix(0, nanos).UTC()
}

// growBytes extends b by n bytes (reallocating as needed) and returns
// the extended slice — the caller fills b[len(b)-n:] in place.
func growBytes(b []byte, n int) []byte {
	if len(b)+n <= cap(b) {
		return b[:len(b)+n]
	}
	nb := make([]byte, len(b)+n, 2*(len(b)+n))
	copy(nb, b)
	return nb
}

// checkFrameCount verifies a chunk's structure and that it holds exactly
// count frames — the shared precondition of every AppendFrames.
func checkFrameCount(frames []byte, count int) error {
	n, err := CountFrames(frames)
	if err != nil {
		return err
	}
	if n != count {
		return fmt.Errorf("storage: frame chunk holds %d records, caller declared %d", n, count)
	}
	return nil
}
