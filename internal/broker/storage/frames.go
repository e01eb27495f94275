package storage

// Batch frames: the one currency of the data plane, on the wire, in a
// log and on disk.
//
// A frame is one produce batch of one partition, columnar and
// little-endian throughout:
//
//	frame = [4]bodyLen [4]crc32c(body) body
//	body  = [4]word [2]ndict {[4]klen key}×ndict ids values [8]tbase [1]texp toff[count]
//	word  = count | tcode<<24 | idcode<<27 | hasTexp<<30
//
// ids index the frame's own key dictionary (first-seen order, every
// entry used), packed low bits first to the dictionary's width: idcode
// 1, 2, 3, 4 for 0, 1, 2, 4 bits, the narrowest that holds 1, 2, ≤ 4,
// ≤ 16 keys. idcode 0 is one byte per id, two when ndict > 256: the
// layout of every frame written before ids were packed, and of any frame
// of more than 16 keys. values are float64 bits, eight bytes each. Times
// are unix nanos (zeroTimeNanos marks the zero time.Time) stored
// frame-of-reference: tbase is the frame's earliest time and each toff
// its record's (time − tbase) / 10^texp in the narrowest width that
// holds the frame's scaled span — tcode 1, 2, 3, 4 for 0, 1, 2, 4 bytes.
// texp is the largest power of ten dividing every offset, present
// (hasTexp) only when it narrows the column; absent, it is 0. tcode 0 has
// no tbase and eight-byte toffs, the times themselves: the layout of
// every frame written before time codes existed, and of any frame whose
// span needs more than four bytes (a zero time among real ones). Every
// layout an earlier build wrote is thus one of this decoder's, read as
// it is. A "chunk" is any run of consecutive frames. Decoding a frame is
// one dictionary lookup per KEY and three column walks, and the one
// checksum covers the whole batch.
//
// Offsets are never part of a frame (a record's offset is its position
// in the log), so the same bytes are valid at any base offset: a chunk
// validated once where it enters the process is appended, forwarded
// leader→follower and served to consumers verbatim. Only a frame cut by
// the edge of a requested record range is ever re-encoded (SliceFrames).
//
// Trust model: ValidateFrames is the one full check (structure, id
// range, CRC) and runs where bytes enter the process. Everything
// downstream re-walks structure only — headers and dictionaries, never
// the columns — so corrupt lengths can never walk out of bounds, while
// the CRC is carried along untouched for the next process to verify.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"slices"
	"sync"
)

const (
	// frameHdrLen is the per-frame overhead ahead of the body: length
	// + CRC.
	frameHdrLen = 8
	// bodyFixedLen is the fixed head of a frame body: word + ndict.
	bodyFixedLen = 6
	// maxFramePayload bounds a frame body, guarding every reader
	// against a corrupt length prefix.
	maxFramePayload = 64 << 20
	// maxFrameRecords is where the builder closes a frame and opens the
	// next; it also keeps ndict inside its two bytes.
	maxFrameRecords = 1 << 15

	// zeroTimeNanos marks the zero time.Time in a times column
	// (math.MinInt64, the sentinel stream.EventBatch uses too).
	zeroTimeNanos = math.MinInt64
)

var (
	le         = binary.LittleEndian
	castagnoli = crc32.MakeTable(crc32.Castagnoli)
	// timeWidth is the bytes per toff of each tcode.
	timeWidth = [...]int{8, 0, 1, 2, 4}
	// idBits is the bits per id of each idcode; idcode 0's 8 are 16 when
	// ndict > 256.
	idBits = [...]int{8, 0, 1, 2, 4}
	// noIDs stands for the empty ids column of a one-key frame: every id
	// reads 0 from it.
	noIDs = []byte{0}
)

// pow10[e] is 10^e, for every texp. A multiple of 2^e is one of 10^e
// when its quotient q by 2^e times inv5[e] (mod 2^64) is at most
// max5[e], and that product is then q/5^e — an exact division by a
// multiply.
var pow10, inv5, max5 [19]uint64

func init() {
	pow10[0], inv5[0], max5[0] = 1, 1, math.MaxUint64
	for e := 1; e < len(pow10); e++ {
		pow10[e], inv5[e] = pow10[e-1]*10, inv5[e-1]*0xcccccccccccccccd // 5⁻¹ mod 2^64
		max5[e] = math.MaxUint64 / (pow10[e] >> e)
	}
}

// Frame chunk errors.
var (
	ErrBadFrame = errors.New("storage: malformed batch frame")
	ErrFrameCRC = errors.New("storage: batch frame CRC mismatch")
)

// inlineKeys bounds the key table a Frame holds in place: a dictionary
// of inlineKeys entries or more spills its table to the heap.
const inlineKeys = 64

// Frame is a structurally checked view of one batch frame. A walk over
// a chunk parses each frame into one Frame of its own, which stays on
// the caller's stack: no field points into the Frame itself.
type Frame struct {
	Raw   []byte // the whole frame, header and CRC included
	Count int    // records held

	ndict int
	dict  []byte // ndict × {[4]klen key}
	// keys holds where each dictionary entry starts in dict, then
	// len(dict), while ndict < inlineKeys; spill holds them otherwise.
	keys   [inlineKeys]int32
	spill  []int32
	ids    []byte // Count ids of idw bits each; noIDs when idw is 0
	idw    int    // bits per id: 0, 1, 2, 4, 8 or 16
	values []byte // Count × float64 bits
	tbase  int64  // added to every scaled toff; 0 under tcode 0
	scale  int64  // 10^texp: what each toff is multiplied by
	tw     int    // bytes per toff: 8, 0, 1, 2 or 4
	times  []byte // Count toffs
}

// Parse checks the structure of the frame opening b — header bounds,
// layout codes, dictionary walk, column lengths against count — and
// makes f its view; the rest of b starts at len(f.Raw). The columns
// themselves (id range, CRC) are not examined. A b that does not open
// with a well-formed frame is ErrBadFrame. Walking a chunk is
//
//	var f Frame
//	for rest := chunk; len(rest) > 0; rest = rest[len(f.Raw):] {
//		if err := f.Parse(rest); err != nil { ... }
//	}
func (f *Frame) Parse(b []byte) error {
	if len(b) < frameHdrLen+bodyFixedLen {
		return ErrBadFrame
	}
	blen := int(le.Uint32(b))
	if blen < bodyFixedLen || blen > maxFramePayload || blen > len(b)-frameHdrLen {
		return ErrBadFrame
	}
	body := b[frameHdrLen : frameHdrLen+blen]
	word, ndict := le.Uint32(body), int(le.Uint16(body[4:]))
	count, tcode, idcode, hasTexp := int(word&(1<<24-1)), int(word>>24&7), int(word>>27&7), word>>30
	// An id code is the one this build writes for ndict keys, or 0.
	if tcode >= len(timeWidth) || idcode >= len(idBits) || idcode > 0 && idcode != idCode(ndict) ||
		hasTexp > 1 || hasTexp == 1 && tcode == 0 {
		return ErrBadFrame
	}
	rest, tw, trailer := body[bodyFixedLen:], timeWidth[tcode], 8+int(hasTexp)
	if tcode == 0 {
		trailer = 0
	}
	idw := idBits[idcode]
	if ndict > 256 {
		idw = 16
	}
	idsLen := (count*idw + 7) / 8
	dictLen := len(rest) - trailer - idsLen - count*(8+tw)
	if ndict == 0 || ndict > count || dictLen < 0 {
		return ErrBadFrame
	}
	keyAt := f.keys[:]
	if ndict >= inlineKeys {
		f.spill = slices.Grow(f.spill[:0], ndict+1)[:ndict+1]
		keyAt = f.spill
	}
	pos := 0
	for i := 0; i < ndict; i++ {
		if dictLen-pos < 4 {
			return ErrBadFrame
		}
		klen := int(le.Uint32(rest[pos:]))
		if klen > dictLen-pos-4 {
			return ErrBadFrame
		}
		keyAt[i] = int32(pos)
		pos += 4 + klen
	}
	if pos != dictLen {
		return ErrBadFrame
	}
	keyAt[ndict] = int32(pos)
	f.Raw, f.Count, f.ndict = b[:frameHdrLen+blen], count, ndict
	f.dict, rest = rest[:dictLen], rest[dictLen:]
	f.ids, f.idw, f.values, rest = rest[:idsLen], idw, rest[idsLen:idsLen+8*count], rest[idsLen+8*count:]
	if idw == 0 {
		f.ids = noIDs
	}
	f.tbase, f.scale, f.tw = 0, 1, tw
	if trailer > 0 {
		f.tbase, rest = int64(le.Uint64(rest)), rest[8:]
	}
	if hasTexp == 1 {
		if int(rest[0]) >= len(pow10) {
			return ErrBadFrame
		}
		f.scale, rest = int64(pow10[rest[0]]), rest[1:]
	}
	f.times = rest
	return nil
}

// idCode is the id code this build writes for a frame of ndict keys.
func idCode(ndict int) int {
	for code := 1; code < len(idBits); code++ {
		if ndict <= 1<<idBits[code] {
			return code
		}
	}
	return 0
}

// time returns record i's time in unix nanos.
func (f *Frame) time(i int) int64 {
	switch f.tw {
	case 0:
		return f.tbase
	case 1:
		return f.tbase + int64(f.times[i])*f.scale
	case 2:
		return f.tbase + int64(le.Uint16(f.times[2*i:]))*f.scale
	case 4:
		return f.tbase + int64(le.Uint32(f.times[4*i:]))*f.scale
	}
	return int64(le.Uint64(f.times[8*i:]))
}

// id returns record i's dictionary index.
func (f *Frame) id(i int) int {
	if f.idw == 16 {
		return int(le.Uint16(f.ids[2*i:]))
	}
	bit := i * f.idw
	return int(f.ids[bit>>3]>>(bit&7)) & (1<<f.idw - 1)
}

// key returns dictionary entry id's key, a view into the frame.
func (f *Frame) key(id int) []byte {
	keyAt := f.keys[:]
	if f.ndict >= inlineKeys {
		keyAt = f.spill
	}
	return f.dict[keyAt[id]+4 : keyAt[id+1]]
}

// Decode appends the frame's records to three columns: per record the
// caller's id for its key (intern is asked once per dictionary entry,
// with a view into the frame), its value, and its time as unix nanos
// with the zero time.Time as math.MinInt64. An id outside the
// dictionary — impossible in a frame that passed ValidateFrames — is
// ErrBadFrame, never an out-of-range read.
func (f *Frame) Decode(ids []int32, values []float64, times []int64, intern func(key []byte) int32) ([]int32, []float64, []int64, error) {
	var table [256]int32 // remap's backing up to 256 keys, indexed by a byte unchecked
	remap := table[:0]
	for id := 0; id < f.ndict; id++ {
		remap = append(remap, intern(f.key(id)))
	}
	n, nv, nt := len(ids), len(values), len(times)
	ids, values, times = slices.Grow(ids, f.Count)[:n+f.Count], slices.Grow(values, f.Count), slices.Grow(times, f.Count)
	out := ids[n:]
	if f.idw == 16 {
		for i := range out {
			id := int(le.Uint16(f.ids[2*i:]))
			if id >= len(remap) {
				return ids[:n], values, times, ErrBadFrame
			}
			out[i] = remap[id]
		}
	} else {
		w, mask := uint(f.idw), byte(1<<f.idw-1)
		for i := range out {
			bit := uint(i) * w
			id := f.ids[bit>>3] >> (bit & 7) & mask
			if int(id) >= len(remap) {
				return ids[:n], values, times, ErrBadFrame
			}
			out[i] = table[id]
		}
	}
	values, times = values[:nv+f.Count], times[:nt+f.Count]
	vs, ts, col, base, scale := values[nv:], times[nt:], f.times, f.tbase, f.scale
	ts = ts[:len(vs)]
	switch f.tw { // one loop per width: no per-record switch
	case 0:
		for i := range vs {
			vs[i], ts[i] = math.Float64frombits(le.Uint64(f.values[8*i:])), base
		}
	case 1:
		col = col[:len(vs)]
		for i := range vs {
			vs[i], ts[i] = math.Float64frombits(le.Uint64(f.values[8*i:])), base+int64(col[i])*scale
		}
	case 2:
		for i := range vs {
			vs[i], ts[i] = math.Float64frombits(le.Uint64(f.values[8*i:])), base+int64(le.Uint16(col[2*i:]))*scale
		}
	case 4:
		for i := range vs {
			vs[i], ts[i] = math.Float64frombits(le.Uint64(f.values[8*i:])), base+int64(le.Uint32(col[4*i:]))*scale
		}
	default:
		for i := range vs {
			vs[i], ts[i] = math.Float64frombits(le.Uint64(f.values[8*i:])), int64(le.Uint64(col[8*i:]))
		}
	}
	return ids, values, times, nil
}

// check is the part of validation parse leaves to it: the CRC and the
// range of every id, where its width can reach past the dictionary.
func (f *Frame) check() error {
	if crc32.Checksum(f.Raw[frameHdrLen:], castagnoli) != le.Uint32(f.Raw[4:]) {
		return ErrFrameCRC
	}
	for i := 0; f.ndict < 1<<f.idw && i < f.Count; i++ {
		if f.id(i) >= f.ndict {
			return ErrBadFrame
		}
	}
	return nil
}

// ValidateFrames fully checks a chunk — structure, id range and CRC of
// every frame — and returns the number of RECORDS it holds. This is the
// single validation gate of the zero-copy path: bytes that pass it are
// safe to append, forward and decode.
func ValidateFrames(b []byte) (int, error) {
	records := 0
	var f Frame
	for rest := b; len(rest) > 0; rest = rest[len(f.Raw):] {
		if err := f.Parse(rest); err != nil {
			return records, err
		}
		if err := f.check(); err != nil {
			return records, err
		}
		records += f.Count
	}
	return records, nil
}

// checkedFrame returns the frame opening b, whose structure was checked
// before, and its record count, both read from its header.
func checkedFrame(b []byte) ([]byte, int) {
	raw := b[:frameHdrLen+int(le.Uint32(b))]
	return raw, int(le.Uint32(raw[frameHdrLen:]) & (1<<24 - 1))
}

// span is one frame of a chunk: its length in bytes and in records.
type span struct{ bytes, count int }

// frameSpans walks a chunk's structure once, appending each frame's
// span to buf, and verifies the chunk holds exactly count records — the
// shared first step of every AppendFrames, done before mutating so a
// corrupt chunk is rejected whole.
func frameSpans(buf []span, frames []byte, count int) ([]span, error) {
	n := 0
	var f Frame
	for rest := frames; len(rest) > 0; rest = rest[len(f.Raw):] {
		if err := f.Parse(rest); err != nil {
			return nil, err
		}
		buf = append(buf, span{len(f.Raw), f.Count})
		n += f.Count
	}
	if n != count {
		return nil, fmt.Errorf("storage: frame chunk holds %d records, caller declared %d", n, count)
	}
	return buf, nil
}

// carve stages records [from, to) of f onto the open frames of parts:
// record i goes to parts[part[id]] for its key id — every record to
// parts[0] when part is nil, and a record whose part is negative (the
// empty key) wherever route(nil) sends it, asked per record. Each open
// frame gains the keys it needs in first-seen order, so what it encodes
// is byte for byte the frame BatchBuilder builds from those records.
func (f *Frame) carve(parts []partFrame, from, to int, part []int32, route func([]byte) int) error {
	var buf [64]int32
	remap := append(buf[:0], make([]int32, f.ndict)...) // key's id in its open frame + 1; 0 while unseen
	for i := from; i < to; i++ {
		id, p := f.id(i), 0
		if id >= f.ndict {
			return ErrBadFrame
		}
		if part != nil {
			if p = int(part[id]); p < 0 {
				p = route(nil)
			}
		}
		pf, key := &parts[p], f.key(id)
		slot := &remap[id]
		if len(key) == 0 {
			slot = &pf.empty
		}
		if *slot == 0 {
			*slot = addKey(pf, key)
		}
		pf.ids = append(pf.ids, uint16(*slot-1))
		pf.values = append(pf.values, f.values[8*i:8*i+8]...)
		pf.addTime(f.time(i))
	}
	return nil
}

// SliceFrames appends to dst a chunk holding exactly records
// [from, to) of chunk. Frames wholly inside the range are copied as they
// are; a frame the range cuts through is re-encoded with its dictionary
// compacted to the keys the kept records use and its times re-based on
// theirs — never longer than the frame it came from, as fewer records
// span no more time. It is how a log serves,
// and truncates to, a record offset that falls inside a batch, and how a
// replica trims a duplicate prefix.
func SliceFrames(dst, chunk []byte, from, to int) ([]byte, error) {
	if from < 0 || from > to {
		return dst, ErrBadFrame
	}
	at := 0
	var f Frame
	for rest := chunk; len(rest) > 0; rest = rest[len(f.Raw):] {
		if err := f.Parse(rest); err != nil {
			return dst, err
		}
		lo, hi := max(from-at, 0), min(to-at, f.Count)
		switch {
		case lo >= hi: // outside the range
		case lo == 0 && hi == f.Count:
			dst = append(dst, f.Raw...)
		default:
			bb := GetBatchBuilder(1, nil)
			err := f.carve(bb.parts, lo, hi, nil, nil)
			if err == nil {
				dst = bb.parts[0].encode(dst)
			}
			bb.Release()
			if err != nil {
				return dst, err
			}
		}
		if at += f.Count; at >= to {
			return dst, nil
		}
	}
	if at < to {
		return dst, ErrBadFrame // the range runs past the chunk
	}
	return dst, nil
}

// SplitFrames routes the records of a chunk by key and appends each
// partition's share, re-framed, to dst[partition], adding its record
// count to counts[partition]. route is asked once per dictionary entry
// — once per RECORD for the empty key, so a round-robin router spreads
// keyless records exactly as it would one by one — and a frame whose
// keys all land on one partition is forwarded verbatim.
func SplitFrames(b []byte, route func(key []byte) int, dst [][]byte, counts []int) error {
	bb := GetBatchBuilder(len(dst), nil)
	defer bb.Release()
	var buf [inlineKeys]int32
	part := buf[:0]
	var f Frame
	for rest := b; len(rest) > 0; rest = rest[len(f.Raw):] {
		if err := f.Parse(rest); err != nil {
			return err
		}
		part = part[:0]
		same := true
		for id := 0; id < f.ndict; id++ {
			p := int32(-1) // the empty key: routed per record by carve
			if key := f.key(id); len(key) > 0 {
				p = int32(route(key))
			}
			part = append(part, p)
			same = same && p >= 0 && p == part[0]
		}
		if same {
			dst[part[0]] = append(dst[part[0]], f.Raw...)
			counts[part[0]] += f.Count
			continue
		}
		if err := f.carve(bb.parts, 0, f.Count, part, route); err != nil {
			return err
		}
		for p := range bb.parts {
			if pf := &bb.parts[p]; len(pf.ids) > 0 {
				counts[p] += len(pf.ids)
				dst[p] = pf.encode(dst[p])
			}
		}
	}
	return nil
}

// BatchBuilder turns records into batch frames, one chunk per
// partition: the column builder behind every produce entry point. Each
// record costs one map lookup (none when its key repeats the previous
// record's) and three column appends.
type BatchBuilder struct {
	route func(key string) int
	parts []partFrame
	// index maps a non-empty key to its partition and its id in that
	// partition's open frame, packed partition<<32 | id.
	index   map[string]uint64
	lastKey string
	last    uint64
	open    int // records in the open frames
}

// partFrame is one partition's closed frames plus the columns of its
// open one.
type partFrame struct {
	out    []byte
	count  int // records Added: those in out and in the open frame
	dict   []byte
	ndict  int
	empty  int32 // id of the empty key in the open frame + 1; 0 while unseen
	ids    []uint16
	values []byte
	times  []int64
	// tmin and tmax bound the open frame's times, so encode picks its
	// time code without a scan, and scans for texp only where scaling
	// could narrow the column.
	tmin, tmax int64
}

var builderPool = sync.Pool{New: func() any { return &BatchBuilder{index: make(map[string]uint64, 64)} }}

// GetBatchBuilder returns an empty pooled builder for parts partitions;
// Release it once its chunks are no longer referenced. route picks a
// key's partition — asked once per distinct key, once per record for
// the empty key; nil sends everything to partition 0.
func GetBatchBuilder(parts int, route func(key string) int) *BatchBuilder {
	bb := builderPool.Get().(*BatchBuilder)
	bb.route = route
	bb.parts = slices.Grow(bb.parts[:0], parts)[:parts]
	for i := range bb.parts {
		pf := &bb.parts[i]
		pf.out, pf.count = pf.out[:0], 0
		pf.reset()
	}
	return bb
}

// Release returns the builder, and every chunk it handed out, to the pool.
func (bb *BatchBuilder) Release() {
	clear(bb.index)
	bb.route, bb.lastKey, bb.open = nil, "", 0
	builderPool.Put(bb)
}

func (pf *partFrame) reset() {
	pf.dict, pf.ndict, pf.empty = pf.dict[:0], 0, 0
	pf.ids, pf.values, pf.times = pf.ids[:0], pf.values[:0], pf.times[:0]
	pf.tmin, pf.tmax = math.MaxInt64, math.MinInt64
}

func (pf *partFrame) addTime(t int64) {
	pf.times = append(pf.times, t)
	pf.tmin, pf.tmax = min(pf.tmin, t), max(pf.tmax, t)
}

// addKey appends key to the open frame's dictionary and returns its
// id + 1.
func addKey[K string | []byte](pf *partFrame, key K) int32 {
	pf.dict = append(le.AppendUint32(pf.dict, uint32(len(key))), key...)
	pf.ndict++
	return int32(pf.ndict)
}

// timeCode is the narrowest time code that holds span.
func timeCode(span uint64) int {
	switch {
	case span == 0:
		return 1
	case span <= math.MaxUint8:
		return 2
	case span <= math.MaxUint16:
		return 3
	case span <= math.MaxUint32:
		return 4
	}
	return 0
}

// texp returns the largest e < len(pow10) for which 10^e divides every
// offset of the open frame's times from tmin.
func (pf *partFrame) texp() int {
	e := len(pow10) - 1
	mask, inv, most := uint64(1)<<e-1, inv5[e], max5[e]
	for _, t := range pf.times {
		for off := uint64(t - pf.tmin); off&mask != 0 || (off>>e)*inv > most; {
			if e--; e == 0 {
				return 0
			}
			mask, inv, most = 1<<e-1, inv5[e], max5[e]
		}
	}
	return e
}

// encode appends the open frame to dst, sealed with its length and CRC,
// and opens an empty one. Its ids take the narrowest packing for its
// dictionary, and its time column the fewest bytes: the narrowest time
// code for its span, computed unsigned, or — when that is fewer bytes,
// texp byte included — for its span scaled by texp.
func (pf *partFrame) encode(dst []byte) []byte {
	n, span := len(pf.ids), uint64(pf.tmax-pf.tmin)
	tcode, e := timeCode(span), 0
	if tcode == 0 || tcode > 2 { // a one-byte column has nothing to gain
		colLen := 8 + n*timeWidth[tcode]
		if tcode == 0 {
			colLen = 8 * n
		}
		if x := pf.texp(); x > 0 {
			if c := timeCode(span / pow10[x]); c != 0 && 9+n*timeWidth[c] < colLen {
				tcode, e = c, x
			}
		}
	}
	idcode := idCode(pf.ndict)
	word := uint32(n) | uint32(tcode)<<24 | uint32(idcode)<<27
	if e > 0 {
		word |= 1 << 30
	}
	at := len(dst)
	dst = slices.Grow(dst, frameHdrLen+bodyFixedLen+len(pf.dict)+n*(2+16)+9)
	dst = append(dst, make([]byte, frameHdrLen)...)
	dst = le.AppendUint32(dst, word)
	dst = le.AppendUint16(dst, uint16(pf.ndict))
	dst = append(dst, pf.dict...)
	switch w := idBits[idcode]; {
	case pf.ndict > 256:
		for _, id := range pf.ids {
			dst = le.AppendUint16(dst, id)
		}
	case w > 0: // packed low bits first, within the capacity grown above
		col := dst[len(dst) : len(dst)+(n*w+7)/8]
		clear(col)
		for i, id := range pf.ids {
			bit := i * w
			col[bit>>3] |= byte(id) << (bit & 7)
		}
		dst = dst[:len(dst)+len(col)]
	}
	dst = append(dst, pf.values...)
	base := pf.tmin
	if tcode > 0 {
		dst = le.AppendUint64(dst, uint64(base))
	}
	if e > 0 {
		dst = append(dst, byte(e))
	}
	// The toffs are written in place, within the capacity grown above:
	// each offset scaled by 10^e is (off >> e) × inv5[e], no division.
	col, inv := dst[len(dst):len(dst)+n*timeWidth[tcode]], inv5[e]
	switch tcode { // one loop per width: no per-record switch
	case 0:
		for i, t := range pf.times {
			le.PutUint64(col[8*i:], uint64(t))
		}
	case 2:
		for i, t := range pf.times {
			col[i] = byte((uint64(t-base) >> e) * inv)
		}
	case 3:
		for i, t := range pf.times {
			le.PutUint16(col[2*i:], uint16((uint64(t-base)>>e)*inv))
		}
	case 4:
		for i, t := range pf.times {
			le.PutUint32(col[4*i:], uint32((uint64(t-base)>>e)*inv))
		}
	}
	dst = dst[:len(dst)+len(col)]
	le.PutUint32(dst[at:], uint32(len(dst)-at-frameHdrLen))
	le.PutUint32(dst[at+4:], crc32.Checksum(dst[at+frameHdrLen:], castagnoli))
	pf.reset()
	return dst
}

// Add appends one record's key, value and time to its partition's open
// frame (topic, partition and offset are where a record is stored).
func (bb *BatchBuilder) Add(r *Record) {
	var at uint64 // partition<<32 | id
	switch {
	case r.Key == "":
		p := 0
		if bb.route != nil {
			p = bb.route("")
		}
		pf := &bb.parts[p]
		if pf.empty == 0 {
			pf.empty = addKey(pf, "")
		}
		at = uint64(p)<<32 | uint64(pf.empty-1)
	case r.Key == bb.lastKey:
		at = bb.last
	default:
		var known bool
		if at, known = bb.index[r.Key]; !known {
			p := 0
			if bb.route != nil {
				p = bb.route(r.Key)
			}
			at = uint64(p)<<32 | uint64(addKey(&bb.parts[p], r.Key)-1)
			bb.index[r.Key] = at
		}
		bb.lastKey, bb.last = r.Key, at
	}
	pf := &bb.parts[at>>32]
	pf.ids = append(pf.ids, uint16(at))
	pf.values = le.AppendUint64(pf.values, math.Float64bits(r.Value))
	nanos := int64(zeroTimeNanos)
	if !r.Time.IsZero() {
		nanos = r.Time.UnixNano()
	}
	pf.addTime(nanos)
	pf.count++
	if bb.open++; bb.open == maxFrameRecords {
		bb.closeFrames()
	}
}

// closeFrames encodes every partition's open frame onto its chunk. All
// partitions close together because they share one key index.
func (bb *BatchBuilder) closeFrames() {
	for i := range bb.parts {
		if pf := &bb.parts[i]; len(pf.ids) > 0 {
			pf.out = pf.encode(pf.out)
		}
	}
	clear(bb.index)
	bb.lastKey, bb.open = "", 0
}

// Frames returns partition p's chunk and its record count. The bytes
// belong to the builder: they are valid until Release.
func (bb *BatchBuilder) Frames(p int) ([]byte, int) {
	if bb.open > 0 {
		bb.closeFrames()
	}
	return bb.parts[p].out, bb.parts[p].count
}

// AppendRecordFrames appends a record batch to b as one frame (one per
// maxFrameRecords) — where records enter the frame path unpartitioned.
func AppendRecordFrames(b []byte, recs []Record) []byte {
	bb := GetBatchBuilder(1, nil)
	defer bb.Release()
	for i := range recs {
		bb.Add(&recs[i])
	}
	frames, _ := bb.Frames(0)
	return append(b, frames...)
}
