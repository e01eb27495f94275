package broker

// The wire codec. Every message is a TCP frame "4-byte big-endian length
// + payload"; the payload is a compact binary message carrying a
// correlation ID, so many requests can be in flight on one connection
// (see client.go). Record batches travel as chunks of batch frames —
// one columnar, CRC-32C-checked frame per produce batch per partition,
// the storage engine's segment layout (storage/frames.go): a chunk is
// validated once — structure + CRC — where it enters the process, then
// appended to the log, forwarded leader→follower, and served back to
// consumers verbatim; no hop re-encodes a record. The control ops
// (hello, create, meta, ping) have binary op codes and fixed layouts
// beside the data ops, so one version byte governs the whole dialect.
//
//	request  = [1]version [1]op [8]corrID [8]traceID  op-specific-body
//	response = [1]version [1]op [8]corrID [1]status   body
//	chunk    = [4]records frame*        frame = storage/frames.go layout
//	gossip   = [8]epoch [2]n {[2]id-len id [1]dead [8]ver}×n
//	meta     = [8]epoch [2]n {[2]id-len id [2]addr-len addr [1]alive}×n
//	           [4]topics {[2]name-len name [2]parts {[2]leader [2]r [2]replica×r}×parts}×topics
//
// A meta's leader and replicas are indexes into its node table; leader
// 0xFFFF means none. Every count is checked against the bytes that
// remain before anything is sized by it.
//
// The envelope is big-endian; a frame is little-endian inside. traceID 0
// means untraced. status 0 is success; any other status means the body
// is an error message. The zero time.Time is encoded as the
// math.MinInt64 sentinel (its UnixNano is undefined); NaN and ±Inf
// values round-trip exactly via their bit patterns. Times outside the
// int64 unix-nano range (years ≲1678 or ≳2262) are not representable;
// stream timestamps are always inside it.

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
	"sync"

	"streamapprox/internal/broker/storage"
	"streamapprox/internal/stream"
)

// wireVersion opens every frame in both directions and is what the hello
// op answers; a client refuses a peer answering anything else. It never
// equals a version byte or hello level of the retired dialects (1–7; 5
// carried one CRC frame per record, 6 frames without time codes, 7 the
// control ops as JSON), nor '{' (0x7B), the first byte of a retired JSON
// lockstep frame, so the server's version check rejects all of them.
const wireVersion byte = 8

// Op codes. 1, 2, 5, 6, 7 and 9 belonged to the retired record-dialect,
// key-routed produce and per-partition replicate ops, 4 to the JSON
// control ops, 11 and 13 to the replica fetch that shipped frames
// without the producer journal and the multi-section replicate batch;
// all stay unassigned: the decoder rejects them like any unknown op.
const (
	binOpHWM          byte = 3
	binOpProducePartF byte = 8  // partitioned produce with pid/seq dedup
	binOpFetchF       byte = 10 // fetch answered as a frame chunk
	binOpRHWMB        byte = 12 // replica high watermark
	binOpReplicate    byte = 14 // leader→follower: one section, answered with the follower's watermark
	binOpRFetch       byte = 15 // replica fetch, answered with one section
	binOpHello        byte = 16 // no body, answered by a bare header
	binOpCreate       byte = 17 // topic, [2]partitions, answered by a bare header
	binOpMeta         byte = 18 // no body, answered with a meta
	binOpPing         byte = 19 // node, gossip, answered with the peer's gossip
)

// noNode is a meta's leader index for a partition with no live replica.
const noNode = 0xFFFF

const (
	binRespHdrLen      = 11 // version + op + corrID + status
	binStatusOK   byte = 0
	binStatusErr  byte = 1
)

// minWireRecord is what every record adds to a batch frame — a one-byte
// dictionary id and the value (its time offset may take no bytes) — and
// minWireFrame the smallest frame there is: header, word + ndict, one
// empty key, one record and eight time bytes (tbase, or the time
// itself). Together they bound the bytes a declared record count needs,
// which is checked before anything is sized by that count.
const (
	minWireRecord = 1 + 8
	minWireFrame  = 8 + 4 + 2 + 4 + minWireRecord + 8
)

// frameBuf is a pooled frame encode/decode buffer. Steady-state
// produce/fetch reuses these, so the per-record wire cost is a copy
// into an already-allocated buffer rather than fresh garbage.
type frameBuf struct{ b []byte }

// maxPooledFrame bounds the buffers kept in the pool so one giant
// frame does not pin memory forever.
const maxPooledFrame = 1 << 20

var framePool = sync.Pool{New: func() any { return &frameBuf{b: make([]byte, 0, 4096)} }}

func getFrame() *frameBuf { return framePool.Get().(*frameBuf) }

func putFrame(fb *frameBuf) {
	if cap(fb.b) > maxPooledFrame {
		return
	}
	fb.b = fb.b[:0]
	framePool.Put(fb)
}

func appendU16(b []byte, v uint16) []byte { return binary.BigEndian.AppendUint16(b, v) }
func appendU32(b []byte, v uint32) []byte { return binary.BigEndian.AppendUint32(b, v) }
func appendU64(b []byte, v uint64) []byte { return binary.BigEndian.AppendUint64(b, v) }

// appendStr appends a [2]length-prefixed string.
func appendStr(b []byte, s string) []byte { return append(appendU16(b, uint16(len(s))), s...) }

// writeRawFrame writes one length-prefixed frame from an encoded payload.
// Through a bufio.Writer with room, the length prefix is built in the
// writer's own buffer, so a frame write allocates nothing.
func writeRawFrame(w io.Writer, payload []byte) error {
	var hdr []byte
	if bw, ok := w.(*bufio.Writer); ok && bw.Available() >= 4 {
		hdr = bw.AvailableBuffer()
	}
	if _, err := w.Write(binary.BigEndian.AppendUint32(hdr, uint32(len(payload)))); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// readFrameInto reads one length-prefixed frame into fb, reusing its
// backing array when large enough; the length prefix is read into that
// array too.
func readFrameInto(r io.Reader, fb *frameBuf) error {
	hdr := append(fb.b[:0], 0, 0, 0, 0)
	if _, err := io.ReadFull(r, hdr); err != nil {
		return err
	}
	n := binary.BigEndian.Uint32(hdr)
	if n > maxFrame {
		return fmt.Errorf("frame of %d bytes exceeds limit", n)
	}
	if uint32(cap(hdr)) < n {
		fb.b = make([]byte, n)
	} else {
		fb.b = hdr[:n]
	}
	_, err := io.ReadFull(r, fb.b)
	return err
}

// errTruncatedFrame reports a binary payload shorter than its own
// structure claims.
var errTruncatedFrame = errors.New("broker: truncated binary frame")

// wireCursor is a bounds-checked reader over a binary payload. After
// the first short read every accessor returns zero values and err is
// set, so decoders can check once at the end.
type wireCursor struct {
	b   []byte
	off int
	err error
}

func (c *wireCursor) need(n int) bool {
	if c.err != nil {
		return false
	}
	if c.off+n > len(c.b) {
		c.err = errTruncatedFrame
		return false
	}
	return true
}

func (c *wireCursor) u8() byte {
	if !c.need(1) {
		return 0
	}
	v := c.b[c.off]
	c.off++
	return v
}

func (c *wireCursor) u16() uint16 {
	if !c.need(2) {
		return 0
	}
	v := binary.BigEndian.Uint16(c.b[c.off:])
	c.off += 2
	return v
}

func (c *wireCursor) u32() uint32 {
	if !c.need(4) {
		return 0
	}
	v := binary.BigEndian.Uint32(c.b[c.off:])
	c.off += 4
	return v
}

func (c *wireCursor) u64() uint64 {
	if !c.need(8) {
		return 0
	}
	v := binary.BigEndian.Uint64(c.b[c.off:])
	c.off += 8
	return v
}

// str reads an n-byte string. A connection's requests name the same few
// topics and members, so the string is *last when the bytes spell it,
// and becomes *last otherwise: a decoder that keeps last allocates none
// while they repeat.
func (c *wireCursor) str(n int, last *string) string {
	if n < 0 || !c.need(n) {
		if c.err == nil {
			c.err = errTruncatedFrame
		}
		return ""
	}
	if b := c.b[c.off : c.off+n]; string(b) != *last {
		*last = string(b)
	}
	c.off += n
	return *last
}

// rest returns the unread remainder of the payload.
func (c *wireCursor) rest() []byte {
	if c.err != nil {
		return nil
	}
	return c.b[c.off:]
}

func (c *wireCursor) remaining() int { return len(c.b) - c.off }

// fits reports whether count items of at least size bytes each can fit
// in what remains, failing the cursor when they cannot: a count that
// came off the wire is checked here before anything is sized by it.
func (c *wireCursor) fits(count, size int) bool {
	if c.err == nil && count*size > c.remaining() {
		c.err = errTruncatedFrame
	}
	return c.err == nil
}

// ---- request encoding (client side) ----

func appendBinReqHeader(b []byte, op byte, corr, trace uint64) []byte {
	return appendU64(appendU64(append(b, wireVersion, op), corr), trace)
}

// appendPartition appends the partition a request names: topic, then index.
func appendPartition(b []byte, topic string, partition int) []byte {
	return appendU32(appendStr(b, topic), uint32(int32(partition)))
}

func encodeHWMReq(fb *frameBuf, corr, trace uint64, topic string, partition int) {
	fb.b = appendPartition(appendBinReqHeader(fb.b[:0], binOpHWM, corr, trace), topic, partition)
}

// ---- frame-chunk request encoding (client side) ----

// encodeProducePartFwdReq encodes a partitioned produce — the one
// produce op — of an encoded frame chunk, shipped verbatim behind its
// record count: explicit target partition plus the producer id /
// sequence pair for idempotent retries (pid 0 disables deduplication).
func encodeProducePartFwdReq(fb *frameBuf, corr, trace uint64, topic string, partition int, pid, seq uint64, frames []byte, count int) {
	fb.b = appendPartition(appendBinReqHeader(fb.b[:0], binOpProducePartF, corr, trace), topic, partition)
	fb.b = appendU32(appendU64(appendU64(fb.b, pid), seq), uint32(count))
	fb.b = append(fb.b, frames...)
}

// replSection is one partition's contiguous run of frames as it moves
// between members, pushed or pulled: the body of a replicate request and
// of a replica fetch's answer. base is the offset the chunk starts at in
// the sender's log; committed is the sender's committed watermark (the
// receiver persists it as its restart truncation point); metas are the
// producer-batch journal entries overlapping the chunk, so the receiver
// adopts dedup state for every producer whose records it gets.
//
//	section = [8]base [8]committed [4]nmetas {[8]pid [8]seq [8]base [8]end}×nmetas chunk
//
// The chunk runs to the end of the payload.
type replSection struct {
	base      int64
	committed int64
	metas     []batchMeta
	frames    []byte
	count     int
}

// appendSectionHead appends a section's fields up to its chunk.
func appendSectionHead(b []byte, base, committed int64, metas []batchMeta) []byte {
	b = appendU32(appendU64(appendU64(b, uint64(base)), uint64(committed)), uint32(len(metas)))
	for _, bm := range metas {
		b = appendU64(appendU64(appendU64(appendU64(b, bm.pid), bm.seq), uint64(bm.base)), uint64(bm.end))
	}
	return b
}

// decode reads a section into s, its journal entries into the array
// s.metas already has and its chunk validated by decodeFrameChunk.
func (s *replSection) decode(cur *wireCursor) {
	s.base, s.committed = int64(cur.u64()), int64(cur.u64())
	nmetas := int(cur.u32())
	s.metas = s.metas[:0]
	if cur.fits(nmetas, 32) && nmetas > 0 {
		s.metas = slices.Grow(s.metas, nmetas)
		for range nmetas {
			s.metas = append(s.metas, batchMeta{pid: cur.u64(), seq: cur.u64(), base: int64(cur.u64()), end: int64(cur.u64())})
		}
	}
	s.count, s.frames = decodeFrameChunk(cur)
}

// encodeReplicateReq encodes a replicate: the epoch and sender that fence
// stale leaders, the partition, then one section.
func encodeReplicateReq(fb *frameBuf, corr, trace uint64, epoch int64, sender, topic string, partition int, s *replSection) {
	fb.b = appendU64(appendBinReqHeader(fb.b[:0], binOpReplicate, corr, trace), uint64(epoch))
	fb.b = appendPartition(appendStr(fb.b, sender), topic, partition)
	fb.b = appendSectionHead(fb.b, s.base, s.committed, s.metas)
	fb.b = appendU32(fb.b, uint32(s.count))
	fb.b = append(fb.b, s.frames...)
}

// encodeFetchFramesReq asks for a fetch answered as a raw frame chunk.
func encodeFetchFramesReq(fb *frameBuf, corr, trace uint64, topic string, partition int, offset int64, limit int) {
	fb.b = appendPartition(appendBinReqHeader(fb.b[:0], binOpFetchF, corr, trace), topic, partition)
	fb.b = appendU32(appendU64(fb.b, uint64(offset)), uint32(max(limit, 0)))
}

// encodeRFetchReq asks for a replica fetch: like a fetch but carrying
// the requesting replica's id (clamping is by replica rules, not
// consumer rules), answered with a section.
func encodeRFetchReq(fb *frameBuf, corr, trace uint64, sender, topic string, partition int, offset int64, limit int) {
	fb.b = appendPartition(appendStr(appendBinReqHeader(fb.b[:0], binOpRFetch, corr, trace), sender), topic, partition)
	fb.b = appendU32(appendU64(fb.b, uint64(offset)), uint32(max(limit, 0)))
}

// encodeRHWMReq asks a member for its committed watermark of a partition.
func encodeRHWMReq(fb *frameBuf, corr, trace uint64, sender, topic string, partition int) {
	fb.b = appendPartition(appendStr(appendBinReqHeader(fb.b[:0], binOpRHWMB, corr, trace), sender), topic, partition)
}

// gossip is a member's epoch and status view as a ping carries it both
// ways: n (id, dead, ver) entries in member order, validated whole by
// decodeGossip and read in place, so merging one takes no string per id.
type gossip struct {
	epoch int64
	n     int
	view  []byte
}

// minViewEntry is the fewest bytes a view entry takes: an empty id.
const minViewEntry = 2 + 1 + 8

func appendViewEntry(b []byte, id string, st peerStatus) []byte {
	return appendU64(append(appendStr(b, id), boolByte(st.Dead)), uint64(st.Ver))
}

func boolByte(v bool) byte {
	if v {
		return 1
	}
	return 0
}

// decodeGossip reads a gossip, checking its count and every entry's
// length against the bytes that remain.
func decodeGossip(cur *wireCursor) gossip {
	g := gossip{epoch: int64(cur.u64()), n: int(cur.u16())}
	start := cur.off
	for i := 0; i < g.n && cur.fits(g.n-i, minViewEntry); i++ {
		if n := int(cur.u16()); cur.need(n + 1 + 8) {
			cur.off += n + 1 + 8
		}
	}
	if cur.err != nil {
		return gossip{}
	}
	g.view = cur.b[start:cur.off]
	return g
}

// entry reads the view entry at off and returns the offset of the next.
func (g *gossip) entry(off int) (id []byte, st peerStatus, next int) {
	n := int(binary.BigEndian.Uint16(g.view[off:]))
	id, off = g.view[off+2:off+2+n], off+2+n
	return id, peerStatus{Dead: g.view[off] != 0, Ver: int64(binary.BigEndian.Uint64(g.view[off+1:]))}, off + 9
}

// ---- request decoding (server side) ----

type binRequest struct {
	op        byte
	corr      uint64
	trace     uint64 // request trace ID (0 = untraced)
	topic     string
	partition int
	offset    int64
	max       int
	parts     int // create: the partition count

	// Produce ops: the validated chunk (a view into the request buffer,
	// valid until the next read on the connection) and its frame count.
	// Whatever reaches a handler here has passed ValidateFrames —
	// structure and CRC — so it is safe to append and forward verbatim.
	frames []byte
	count  int

	// Cluster fields (producePart / replicate / replica reads).
	pid    uint64
	seq    uint64
	epoch  int64
	sender string

	// Replicate: the section, whose frames are a view into the request
	// buffer and have passed ValidateFrames, like the frames field.
	sec replSection

	// Ping: the sender's gossip, a view into the request buffer.
	gossip gossip

	// The topic and sender the connection's requests last named.
	lastTopic, lastSender string
}

// decode reads a request into req, reusing what earlier requests
// decoded there left: the topic and sender strings last named, while
// the new ones spell the same, and the section's journal array. A
// server decodes every request of a connection into one binRequest.
func (req *binRequest) decode(payload []byte) error {
	cur := wireCursor{b: payload}
	*req = binRequest{sec: replSection{metas: req.sec.metas[:0]}, lastTopic: req.lastTopic, lastSender: req.lastSender}
	if ver := cur.u8(); cur.err != nil || ver != wireVersion {
		return fmt.Errorf("broker: unsupported wire version %d (want %d)", ver, wireVersion)
	}
	req.op, req.corr, req.trace = cur.u8(), cur.u64(), cur.u64()
	partition := func() { // the partition a request names
		req.topic = cur.str(int(cur.u16()), &req.lastTopic)
		req.partition = int(int32(cur.u32()))
	}
	sender := func() { req.sender = cur.str(int(cur.u16()), &req.lastSender) }
	switch req.op {
	case binOpHWM:
		partition()
	case binOpProducePartF:
		partition()
		req.pid, req.seq = cur.u64(), cur.u64()
		req.count, req.frames = decodeFrameChunk(&cur)
	case binOpReplicate:
		req.epoch = int64(cur.u64())
		sender()
		partition()
		req.sec.decode(&cur)
		req.count = req.sec.count
	case binOpFetchF, binOpRFetch:
		if req.op == binOpRFetch {
			sender()
		}
		partition()
		req.offset, req.max = int64(cur.u64()), int(cur.u32())
	case binOpRHWMB:
		sender()
		partition()
	case binOpHello, binOpMeta:
	case binOpCreate:
		req.topic = cur.str(int(cur.u16()), &req.lastTopic)
		req.parts = int(cur.u16())
	case binOpPing:
		sender()
		req.gossip = decodeGossip(&cur)
	default:
		return fmt.Errorf("broker: unknown binary op %d", req.op)
	}
	return cur.err
}

// decodeFrameChunk decodes a count-prefixed raw frame chunk, fully
// validating it — structure and CRC of every frame, count matching the
// prefix. This is the zero-copy path's single validation gate: a
// corrupted or truncated chunk is rejected HERE, before any append or
// forward, and everything downstream trusts the bytes structurally.
func decodeFrameChunk(cur *wireCursor) (int, []byte) {
	declared := int(cur.u32())
	if cur.err != nil {
		return 0, nil
	}
	if declared > 0 && minWireFrame+(declared-1)*minWireRecord > cur.remaining() {
		cur.err = errTruncatedFrame
		return 0, nil
	}
	frames := cur.rest()
	cur.off = len(cur.b)
	n, err := storage.ValidateFrames(frames)
	if err != nil {
		cur.err = err
		return 0, nil
	}
	if n != declared {
		cur.err = errTruncatedFrame
		return 0, nil
	}
	return n, frames
}

// framesToRecords decodes a validated frame chunk of count records —
// the one place frames become Records, behind Broker.Fetch and
// client.Fetch alike: the columnar decode, read back row by row. Topic,
// partition and offset are not in a frame; they are stamped from where
// the chunk was read. A key costs one string per chunk however many
// records carry it.
func framesToRecords(frames []byte, count int, topic string, partition int, base int64) []Record {
	eb := stream.GetEventBatch()
	defer eb.Release()
	_, _ = framesToBatch(frames, count, base, eb) // a validated chunk decodes whole
	recs := make([]Record, 0, count)
	for i, id := range eb.Strata {
		recs = append(recs, Record{
			Topic:     topic,
			Partition: partition,
			Offset:    base + int64(i),
			Key:       eb.Dict[id],
			Value:     eb.Values[i],
			Time:      stream.TimeFromNanos(eb.Times[i]),
		})
	}
	return recs
}

// framesToBatch decodes a validated frame chunk of count records
// straight into a columnar batch — the vectorized consumer end of a
// frames fetch: the columns grown once for count, then per frame one
// intern per dictionary KEY and the three columns copied across (the
// times column uses the batch's own zero-time sentinel, so nanos decode
// straight into it). It returns the records decoded.
func framesToBatch(frames []byte, count int, base int64, b *stream.EventBatch) (int, error) {
	b.Base = base
	b.Strata, b.Values, b.Times = slices.Grow(b.Strata, count), slices.Grow(b.Values, count), slices.Grow(b.Times, count)
	n := 0
	var f storage.Frame
	for rest := frames; len(rest) > 0; rest = rest[len(f.Raw):] {
		err := f.Parse(rest)
		if err == nil {
			b.Strata, b.Values, b.Times, err = f.Decode(b.Strata, b.Values, b.Times, b.InternBytes)
		}
		if err != nil {
			return n, err
		}
		n += f.Count
	}
	return n, nil
}

// ---- response encoding (server side) ----

func appendBinRespHeader(b []byte, op byte, corr uint64, status byte) []byte {
	return append(appendU64(append(b, wireVersion, op), corr), status)
}

// encodeOKResp answers an op whose success carries no body (hello,
// create), or opens the answer of one whose body follows.
func encodeOKResp(fb *frameBuf, op byte, corr uint64) {
	fb.b = appendBinRespHeader(fb.b[:0], op, corr, binStatusOK)
}

func encodeErrResp(fb *frameBuf, op byte, corr uint64, msg string) {
	fb.b = appendBinRespHeader(fb.b[:0], op, corr, binStatusErr)
	fb.b = append(fb.b, msg...)
}

// encodeCountResp answers any produce-family op with the record count.
func encodeCountResp(fb *frameBuf, op byte, corr uint64, n int) {
	fb.b = appendBinRespHeader(fb.b[:0], op, corr, binStatusOK)
	fb.b = appendU32(fb.b, uint32(n))
}

// encodeWatermarkResp answers any watermark-carrying op (hwm, rhwm,
// replicate) with an int64 watermark.
func encodeWatermarkResp(fb *frameBuf, op byte, corr uint64, hwm int64) {
	fb.b = appendBinRespHeader(fb.b[:0], op, corr, binStatusOK)
	fb.b = appendU64(fb.b, uint64(hwm))
}

// beginFetchFramesResp opens a raw-frame fetch response — header, base
// offset, count placeholder — and returns the index where the count is
// patched once the frames are appended. The log's ReadFrames then
// appends the chunk DIRECTLY onto fb.b: the response is assembled in
// the server's pooled write buffer with no intermediate record slice or
// scratch buffer at all.
func beginFetchFramesResp(fb *frameBuf, corr uint64, base int64) int {
	fb.b = appendBinRespHeader(fb.b[:0], binOpFetchF, corr, binStatusOK)
	fb.b = appendU64(fb.b, uint64(base))
	at := len(fb.b)
	fb.b = appendU32(fb.b, 0)
	return at
}

// beginSectionResp opens a replica fetch's answer the same way: header,
// then the section up to its chunk, and returns where the count is
// patched.
func beginSectionResp(fb *frameBuf, corr uint64, base, committed int64, metas []batchMeta) int {
	fb.b = appendBinRespHeader(fb.b[:0], binOpRFetch, corr, binStatusOK)
	fb.b = appendSectionHead(fb.b, base, committed, metas)
	at := len(fb.b)
	fb.b = appendU32(fb.b, 0)
	return at
}

// patchFrameCount fills the count placeholder left by
// beginFetchFramesResp or beginSectionResp.
func patchFrameCount(fb *frameBuf, at, count int) {
	binary.BigEndian.PutUint32(fb.b[at:], uint32(count))
}

// ---- response decoding (client side) ----

// remoteError is a broker-level rejection that arrived as a well-formed
// error response — proof the peer is alive and answering, as opposed to
// a transport failure. The cluster's failure detector must never count
// one as a missed probe: a deposed leader whose replicates are fenced
// off would otherwise "detect" the healthy majority as dead.
type remoteError struct{ msg string }

func (e *remoteError) Error() string { return e.msg }

// isRemoteErr reports whether err is an answered broker rejection.
func isRemoteErr(err error) bool {
	var re *remoteError
	return errors.As(err, &re)
}

// decodeRespHeader validates a binary response frame and returns a
// cursor positioned at the body. A non-OK status is surfaced as the
// remote error carried in the body; a hello's answer is its header, and
// its version byte the peer's wire version.
func decodeRespHeader(fb *frameBuf) (wireCursor, error) {
	if len(fb.b) < binRespHdrLen {
		return wireCursor{}, errors.New("broker: malformed binary response")
	}
	if fb.b[0] != wireVersion {
		return wireCursor{}, fmt.Errorf("broker: peer answered wire version %d", fb.b[0])
	}
	if fb.b[10] != binStatusOK {
		return wireCursor{}, &remoteError{msg: string(fb.b[binRespHdrLen:])}
	}
	return wireCursor{b: fb.b, off: binRespHdrLen}, nil
}

// corrIDOf extracts the correlation ID from an encoded frame (request
// and response headers carry it at the same offset, whatever the
// version byte, which decodeRespHeader checks).
func corrIDOf(payload []byte) (uint64, bool) {
	if len(payload) < binRespHdrLen {
		return 0, false
	}
	return binary.BigEndian.Uint64(payload[2:10]), true
}

// decodeFramesResp decodes a frame-chunk fetch response, re-verifying
// every batch's CRC — the consumer end of the end-to-end integrity
// story: the CRC computed where the batch was framed is checked against the
// bytes that came off the leader's storage, so corruption at ANY hop (or
// on disk) surfaces as an error here rather than as silently wrong
// values. The returned frames are a view into the response buffer.
func decodeFramesResp(cur *wireCursor) (base int64, count int, frames []byte, err error) {
	base = int64(cur.u64())
	count, frames = decodeFrameChunk(cur)
	return base, count, frames, cur.err
}

// decodeMeta reads a meta answer into the ClusterMeta the routing client
// caches. A partition's leader and replicas are the node table's
// strings, so no string is made per replica.
func decodeMeta(cur *wireCursor) (*ClusterMeta, error) {
	m := &ClusterMeta{Epoch: int64(cur.u64())}
	if nodes := int(cur.u16()); cur.fits(nodes, 2+2+1) {
		m.Nodes = make([]NodeInfo, nodes)
	}
	for i := range m.Nodes {
		m.Nodes[i] = NodeInfo{ID: cur.str(int(cur.u16()), new(string)), Addr: cur.str(int(cur.u16()), new(string)), Alive: cur.u8() != 0}
	}
	nodeAt := func(i uint16) string {
		if int(i) >= len(m.Nodes) {
			if cur.err == nil {
				cur.err = fmt.Errorf("broker: meta names node %d of %d", i, len(m.Nodes))
			}
			return ""
		}
		return m.Nodes[i].ID
	}
	if topics := int(cur.u32()); cur.fits(topics, 2+2) {
		m.Topics = make(map[string]TopicInfo, topics)
		for range topics {
			name, parts := cur.str(int(cur.u16()), new(string)), int(cur.u16())
			if !cur.fits(parts, 2+2) {
				break
			}
			ti := TopicInfo{Partitions: make([]PartitionInfo, parts)}
			for i := range ti.Partitions {
				pi := &ti.Partitions[i]
				if l := cur.u16(); l != noNode {
					pi.Leader = nodeAt(l)
				}
				if r := int(cur.u16()); cur.fits(r, 2) {
					pi.Replicas = make([]string, r)
				}
				for j := range pi.Replicas {
					pi.Replicas[j] = nodeAt(cur.u16())
				}
			}
			m.Topics[name] = ti
		}
	}
	if cur.err != nil {
		return nil, cur.err
	}
	return m, nil
}
