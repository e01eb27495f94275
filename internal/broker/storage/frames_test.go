package storage

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"
)

// frameRecs builds a deterministic record batch covering the key shapes
// the frame layout distinguishes: empty keys, short keys, a long key.
func frameRecs(n int) []Record {
	base := time.Unix(0, 1700000000000000000).UTC()
	out := make([]Record, n)
	for i := range out {
		key := ""
		switch i % 3 {
		case 1:
			key = "sensor-" + string(rune('a'+i%26))
		case 2:
			key = string(bytes.Repeat([]byte{byte('k')}, 100))
		}
		out[i] = Record{
			Key:   key,
			Value: float64(i) * 1.25,
			Time:  base.Add(time.Duration(i) * time.Millisecond),
		}
	}
	return out
}

// decodeFrames is the test's own frames → records walk over the exported
// Frame surface (the broker's decoder cannot be imported from here).
func decodeFrames(t testing.TB, frames []byte) []Record {
	t.Helper()
	var out []Record
	var f Frame
	for rest := frames; len(rest) > 0; rest = rest[len(f.Raw):] {
		if err := f.Parse(rest); err != nil {
			t.Fatalf("frames do not parse: %v", err)
		}
		var keys []string
		ids, values, times, err := f.Decode(nil, nil, nil, func(k []byte) int32 {
			keys = append(keys, string(k))
			return int32(len(keys) - 1)
		})
		if err != nil || len(ids) != f.Count || len(values) != f.Count || len(times) != f.Count {
			t.Fatalf("frame of %d records decoded %d/%d/%d columns, %v", f.Count, len(ids), len(values), len(times), err)
		}
		for i, id := range ids {
			r := Record{Key: keys[id], Value: values[i]}
			if times[i] != zeroTimeNanos {
				r.Time = time.Unix(0, times[i]).UTC()
			}
			out = append(out, r)
		}
	}
	return out
}

// sameRecords compares key, value BITS and instant (zero time included).
func sameRecords(t testing.TB, what string, got, want []Record) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d records, want %d", what, len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.Key != w.Key || math.Float64bits(g.Value) != math.Float64bits(w.Value) ||
			!g.Time.Equal(w.Time) || g.Time.IsZero() != w.Time.IsZero() {
			t.Fatalf("%s: record %d = %+v, want %+v", what, i, g, w)
		}
	}
}

// randomBatch draws n records over keys distinct keys (one of them
// empty, one multi-byte), with the value and time shapes the codec must
// carry bit for bit.
func randomBatch(rng *rand.Rand, n, keys int) []Record {
	names := make([]string, keys)
	for k := range names {
		names[k] = fmt.Sprintf("key-%d", k)
	}
	if keys > 1 {
		names[1] = "ключ-鍵-🗝️"
	}
	if keys > 2 {
		names[2] = ""
	}
	specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1),
		math.Float64frombits(0x7ff8000000000001)} // a second NaN payload
	out := make([]Record, n)
	for i := range out {
		k := i // the first `keys` records introduce every key once
		if i >= keys {
			k = rng.Intn(keys)
		}
		r := Record{Key: names[k], Value: math.Float64frombits(rng.Uint64()), Time: time.Unix(0, rng.Int63()-rng.Int63()).UTC()}
		switch rng.Intn(8) {
		case 0:
			r.Value = specials[rng.Intn(len(specials))]
		case 1:
			r.Time = time.Time{}
		}
		out[i] = r
	}
	return out
}

// timeShape is a times column of n ≥ 2 records and the time code the
// builder must pick for it.
type timeShape struct {
	name  string
	tcode int
	times func(rng *rand.Rand, n int) []int64 // zeroTimeNanos is the zero time
}

// spanShape draws times over [base, base+span], both ends included, at
// random positions.
func spanShape(span uint64, tcode int) timeShape {
	return timeShape{fmt.Sprintf("span %d", span), tcode, func(rng *rand.Rand, n int) []int64 {
		base := int64(1700000000000000000) + rng.Int63n(1e12)
		out := make([]int64, n)
		for i := range out {
			out[i] = base + int64(rng.Uint64()%(span+1))
		}
		lo := rng.Intn(n)
		hi := (lo + 1 + rng.Intn(n-1)) % n
		out[lo], out[hi] = base, base+int64(span)
		return out
	}}
}

// timeShapes reach every time code and both sides of every width's
// limit.
var timeShapes = []timeShape{
	{"all equal", 1, func(_ *rand.Rand, n int) []int64 {
		return slices.Repeat([]int64{1700000000123456789}, n)
	}},
	{"all zero", 1, func(_ *rand.Rand, n int) []int64 { return slices.Repeat([]int64{zeroTimeNanos}, n) }},
	spanShape(1<<8-1, 2), spanShape(1<<8, 3),
	spanShape(1<<16-1, 3), spanShape(1<<16, 4),
	spanShape(1<<32-1, 4), spanShape(1<<32, 0),
	{"zero time among real ones", 0, func(rng *rand.Rand, n int) []int64 {
		out := spanShape(3, 2).times(rng, n)
		out[rng.Intn(n)] = zeroTimeNanos
		return out
	}},
	{"MinInt64+1 with MaxInt64", 0, func(rng *rand.Rand, n int) []int64 {
		out := make([]int64, n)
		for i := range out {
			out[i] = rng.Int63() - rng.Int63()
		}
		out[0], out[n-1] = math.MaxInt64, math.MinInt64+1
		return out
	}},
	{"pair-swapped", 3, func(_ *rand.Rand, n int) []int64 {
		out := make([]int64, n)
		for i := range out {
			out[i] = 1700000000000000000 + int64(i*(1<<16-1)/(n-1))
		}
		for i := 0; i+1 < n; i += 2 {
			out[i], out[i+1] = out[i+1], out[i]
		}
		return out
	}},
}

// withTimes sets the records' times to nanos.
func withTimes(recs []Record, nanos []int64) []Record {
	for i, ns := range nanos {
		recs[i].Time = time.Time{}
		if ns != zeroTimeNanos {
			recs[i].Time = time.Unix(0, ns).UTC()
		}
	}
	return recs
}

// tcodeOf is the time code of the frame opening b.
func tcodeOf(b []byte) int { return int(b[frameHdrLen+3]) }

// TestFrameRoundTripProperty: records → frame → records is the identity
// across the id-width switch (256 keys is the last one-byte dictionary)
// and every time code, the builder picks the narrowest code for the
// frame's span, and every frame built validates.
func TestFrameRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, keys := range []int{1, 2, 3, 17, 256, 257, 700} {
		for trial := 0; trial < 5*len(timeShapes); trial++ {
			shape := timeShapes[trial%len(timeShapes)]
			recs := randomBatch(rng, keys+1+rng.Intn(300), keys)
			recs = withTimes(recs, shape.times(rng, len(recs)))
			chunk := AppendRecordFrames([]byte("prefix"), recs)
			if !bytes.HasPrefix(chunk, []byte("prefix")) {
				t.Fatal("AppendRecordFrames must append")
			}
			chunk = chunk[len("prefix"):]
			if n, err := ValidateFrames(chunk); err != nil || n != len(recs) {
				t.Fatalf("%d keys: ValidateFrames = %d, %v; want %d", keys, n, err, len(recs))
			}
			if _, err := frameSpans(nil, chunk, len(recs)); err != nil {
				t.Fatalf("%d keys: frameSpans: %v", keys, err)
			}
			idw := 1
			if keys > 256 {
				idw = 2
			}
			var f Frame
			if err := f.Parse(chunk); err != nil || len(f.Raw) != len(chunk) || f.ndict != keys || len(f.ids) != f.Count*idw {
				t.Fatalf("%d keys: one frame expected, got %v, ndict=%d of %d bytes", keys, err, f.ndict, len(chunk))
			}
			tw, tbase := timeWidth[shape.tcode], 8
			if shape.tcode == 0 {
				tbase = 0
			}
			if got := tcodeOf(chunk); got != shape.tcode || len(f.times) != f.Count*tw ||
				len(chunk) != frameHdrLen+bodyFixedLen+len(f.dict)+f.Count*(idw+8+tw)+tbase {
				t.Fatalf("%d keys, %s: time code %d with %d time bytes, want code %d", keys, shape.name, got, len(f.times), shape.tcode)
			}
			sameRecords(t, fmt.Sprintf("%d keys, %s", keys, shape.name), decodeFrames(t, chunk), recs)
		}
	}
	if got := AppendRecordFrames(nil, nil); len(got) != 0 {
		t.Fatalf("no records must frame to nothing, got %x", got)
	}
}

// TestBuilderClosesFramesAtCapacity: a batch larger than one frame may
// hold comes out as several, none over the cap, in order.
func TestBuilderClosesFramesAtCapacity(t *testing.T) {
	recs := randomBatch(rand.New(rand.NewSource(3)), 2*maxFrameRecords+10, 5)
	chunk := AppendRecordFrames(nil, recs)
	var sizes []int
	var f Frame
	for rest := chunk; len(rest) > 0 && f.Parse(rest) == nil; rest = rest[len(f.Raw):] {
		sizes = append(sizes, f.Count)
	}
	if fmt.Sprint(sizes) != fmt.Sprint([]int{maxFrameRecords, maxFrameRecords, 10}) {
		t.Fatalf("frame sizes = %v", sizes)
	}
	if n, err := ValidateFrames(chunk); err != nil || n != len(recs) {
		t.Fatalf("ValidateFrames = %d, %v", n, err)
	}
	sameRecords(t, "multi-frame", decodeFrames(t, chunk), recs)
}

// TestBatchBuilderPartitions: one pass over a mixed slice yields, per
// partition, exactly the frame its records alone would build, with the
// router asked once per distinct key and once per keyless record.
func TestBatchBuilderPartitions(t *testing.T) {
	recs := randomBatch(rand.New(rand.NewSource(5)), 400, 9)
	const parts = 3
	asked := map[string]int{}
	rr := 0
	route := func(key string) int {
		asked[key]++
		if key == "" {
			rr++
			return rr % parts
		}
		return len(key) % parts
	}
	bb := GetBatchBuilder(parts, route)
	want := make([][]Record, parts)
	wrr := 0
	for i := range recs {
		bb.Add(&recs[i])
		p := len(recs[i].Key) % parts
		if recs[i].Key == "" {
			wrr++
			p = wrr % parts
		}
		want[p] = append(want[p], recs[i])
	}
	for p := 0; p < parts; p++ {
		frames, count := bb.Frames(p)
		if count != len(want[p]) || !bytes.Equal(frames, AppendRecordFrames(nil, want[p])) {
			t.Fatalf("partition %d: %d records framed, want %d; bytes equal: %v", p, count, len(want[p]), false)
		}
	}
	bb.Release()
	for key, n := range asked {
		if key != "" && n != 1 {
			t.Errorf("router asked %d times for %q", n, key)
		}
	}
	if asked[""] != wrr {
		t.Errorf("router asked %d times for the empty key, want once per keyless record (%d)", asked[""], wrr)
	}
}

// TestSliceFramesIsTheBuiltFrame: every record range of a frame,
// re-encoded, is byte for byte the frame built from those records — so a
// cut read is indistinguishable from a batch produced that way.
func TestSliceFramesIsTheBuiltFrame(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, keys := range []int{1, 6, 300} {
		recs := randomBatch(rng, keys+40, keys)
		frame := AppendRecordFrames(nil, recs)
		for from := 0; from < len(recs); from += 1 + from/8 {
			for to := from + 1; to <= len(recs); to += 1 + (to-from)/8 {
				got, err := SliceFrames([]byte("x"), frame, from, to)
				if err != nil || !bytes.Equal(got[1:], AppendRecordFrames(nil, recs[from:to])) {
					t.Fatalf("%d keys: SliceFrames[%d:%d] differs from the built frame (%v)", keys, from, to, err)
				}
			}
		}
	}
}

// TestSliceFramesOverAChunk: a range over several frames keeps the whole
// ones as they are, re-encodes the cut ends, and holds exactly the
// records asked for; a range the chunk does not cover is an error.
func TestSliceFramesOverAChunk(t *testing.T) {
	recs := frameRecs(30)
	chunk := AppendRecordFrames(AppendRecordFrames(AppendRecordFrames(nil, recs[:10]), recs[10:11]), recs[11:])
	for from := 0; from <= len(recs); from++ {
		for to := from; to <= len(recs); to++ {
			got, err := SliceFrames(nil, chunk, from, to)
			if n, verr := ValidateFrames(got); err != nil || verr != nil || n != to-from {
				t.Fatalf("SliceFrames[%d:%d] = %d records, %v, %v", from, to, n, err, verr)
			}
			sameRecords(t, fmt.Sprintf("[%d:%d]", from, to), decodeFrames(t, got), recs[from:to])
		}
	}
	if got, _ := SliceFrames(nil, chunk, 0, 11); !bytes.Equal(got, chunk[:len(got)]) {
		t.Fatal("frames wholly inside the range must be copied as stored")
	}
	for _, bad := range [][2]int{{-1, 2}, {4, 2}, {0, len(recs) + 1}, {len(recs) + 1, len(recs) + 2}} {
		if _, err := SliceFrames(nil, chunk, bad[0], bad[1]); !errors.Is(err, ErrBadFrame) {
			t.Errorf("SliceFrames[%d:%d] = %v, want ErrBadFrame", bad[0], bad[1], err)
		}
	}
}

// TestSplitFrames: routing is per dictionary entry (per record for the
// empty key), every partition's share is the frame its records alone
// would build, and a frame that needs no split is forwarded as is.
func TestSplitFrames(t *testing.T) {
	recs := randomBatch(rand.New(rand.NewSource(13)), 500, 16)
	const parts = 4
	rr := 0
	route := func(key []byte) int {
		if len(key) == 0 {
			rr++
			return rr % parts
		}
		return int(key[len(key)-1]) % parts
	}
	chunk := AppendRecordFrames(AppendRecordFrames(nil, recs[:200]), recs[200:])
	dst, counts := make([][]byte, parts), make([]int, parts)
	if err := SplitFrames(chunk, route, dst, counts); err != nil {
		t.Fatal(err)
	}
	rr = 0
	want := make([][]Record, parts)
	for _, r := range recs {
		p := route([]byte(r.Key))
		want[p] = append(want[p], r)
	}
	for p := range dst {
		if n, err := ValidateFrames(dst[p]); err != nil || n != counts[p] || n != len(want[p]) {
			t.Fatalf("partition %d: %d records valid, %d counted, %d wanted (%v)", p, n, counts[p], len(want[p]), err)
		}
		sameRecords(t, fmt.Sprintf("partition %d", p), decodeFrames(t, dst[p]), want[p])
	}
	one := AppendRecordFrames(nil, []Record{{Key: "a", Value: 1}, {Key: "e", Value: 2}}) // 'a', 'e' ≡ 1 mod 4
	dst, counts = make([][]byte, parts), make([]int, parts)
	if err := SplitFrames(one, route, dst, counts); err != nil || counts[1] != 2 || !bytes.Equal(dst[1], one) {
		t.Fatalf("single-partition frame not forwarded verbatim: %v, counts %v", err, counts)
	}
}

// TestCutsKeepTimesExact: for a frame of every time shape, each cut a
// log makes — SliceFrames over every record range, SplitFrames by key,
// MemLog and FileLog TruncateTo at every record boundary — keeps the
// times bit for bit and is never longer than its source frame.
func TestCutsKeepTimesExact(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	const n = 12
	for _, shape := range timeShapes {
		recs := withTimes(randomBatch(rng, n, 4), shape.times(rng, n))
		frame := AppendRecordFrames(nil, recs)
		if got := tcodeOf(frame); got != shape.tcode {
			t.Fatalf("%s: time code %d, want %d", shape.name, got, shape.tcode)
		}
		for from := 0; from < n; from++ {
			for to := from + 1; to <= n; to++ {
				cut, err := SliceFrames(nil, frame, from, to)
				if err != nil || len(cut) > len(frame) {
					t.Fatalf("%s: SliceFrames[%d:%d] = %d bytes of %d, %v", shape.name, from, to, len(cut), len(frame), err)
				}
				sameRecords(t, fmt.Sprintf("%s [%d:%d]", shape.name, from, to), decodeFrames(t, cut), recs[from:to])
			}
		}

		route := func(key []byte) int { return len(key) % 3 }
		dst, counts := make([][]byte, 3), make([]int, 3)
		if err := SplitFrames(frame, route, dst, counts); err != nil {
			t.Fatal(err)
		}
		for p := range dst {
			var want []Record
			for _, r := range recs {
				if route([]byte(r.Key)) == p {
					want = append(want, r)
				}
			}
			if len(dst[p]) > len(frame) {
				t.Fatalf("%s: partition %d's share is %d bytes, its source %d", shape.name, p, len(dst[p]), len(frame))
			}
			sameRecords(t, fmt.Sprintf("%s partition %d", shape.name, p), decodeFrames(t, dst[p]), want)
		}

		for hwm := 0; hwm <= n; hwm++ {
			dir := t.TempDir()
			logs := map[string]Log{"MemLog": NewMemLog(), "FileLog": openFileLog(t, dir, FileConfig{Policy: SyncNone})}
			header := map[string]int{"MemLog": 0, "FileLog": segHdrLen}
			for name, l := range logs {
				if _, err := l.AppendFrames(frame, n); err != nil {
					t.Fatal(err)
				}
				if err := l.TruncateTo(int64(hwm)); err != nil {
					t.Fatalf("%s %s: TruncateTo(%d): %v", name, shape.name, hwm, err)
				}
				got, _, err := l.ReadFrames(0, n, nil)
				if _, bytes := l.Stats(); err != nil || int(bytes) > len(frame)+header[name] {
					t.Fatalf("%s %s: cut to %d holds %d bytes, its source %d (%v)", name, shape.name, hwm, bytes, len(frame), err)
				}
				sameRecords(t, fmt.Sprintf("%s %s cut to %d", name, shape.name, hwm), decodeFrames(t, got), recs[:hwm])
			}
			_ = logs["FileLog"].Close()
			re := openFileLog(t, dir, FileConfig{Policy: SyncNone})
			got, _, err := re.ReadFrames(0, n, nil)
			if err != nil {
				t.Fatal(err)
			}
			sameRecords(t, fmt.Sprintf("reopened %s cut to %d", shape.name, hwm), decodeFrames(t, got), recs[:hwm])
		}
	}
}

// framePerCode holds one single-frame chunk of each time code, in code
// order, and one resealed with code 5, which no reader may accept.
func framePerCode() (frames [][]byte, code5 []byte) {
	rng := rand.New(rand.NewSource(23))
	for code := 0; code < len(timeWidth); code++ {
		for _, shape := range timeShapes {
			if shape.tcode == code {
				frames = append(frames, AppendRecordFrames(nil, withTimes(randomBatch(rng, 6, 3), shape.times(rng, 6))))
				break
			}
		}
	}
	code5 = append([]byte(nil), frames[4]...)
	code5[frameHdrLen+3] = 5
	le.PutUint32(code5[4:], crc32.Checksum(code5[frameHdrLen:], castagnoli))
	return frames, code5
}

// corruptionChunk is three frames that between them use every layout
// variant: a one-byte-id batch, a single record, a two-byte-id batch.
func corruptionChunk() []byte {
	rng := rand.New(rand.NewSource(17))
	chunk := AppendRecordFrames(nil, frameRecs(7))
	chunk = AppendRecordFrames(chunk, frameRecs(1))
	return AppendRecordFrames(chunk, randomBatch(rng, 270, 260))
}

func frameBounds(chunk []byte) map[int]bool {
	bounds := map[int]bool{0: true}
	off := 0
	var f Frame
	for rest := chunk; len(rest) > 0 && f.Parse(rest) == nil; rest = rest[len(f.Raw):] {
		off += len(f.Raw)
		bounds[off] = true
	}
	return bounds
}

// TestValidateFramesRejectsCorruption flips every byte of a valid chunk
// in turn and truncates it at every non-boundary length: each mutation
// must fail validation with one of the two frame errors — never a
// panic, never an out-of-range read — so a corrupted forward can never
// pass the wire gate.
func TestValidateFramesRejectsCorruption(t *testing.T) {
	chunk := corruptionChunk()
	for i := range chunk {
		mut := append([]byte(nil), chunk...)
		mut[i] ^= 0x40
		if _, err := ValidateFrames(mut); !errors.Is(err, ErrFrameCRC) && !errors.Is(err, ErrBadFrame) {
			t.Fatalf("flip at byte %d: err = %v", i, err)
		}
	}
	bounds := frameBounds(chunk)
	for cut := 0; cut < len(chunk); cut++ {
		n, err := ValidateFrames(chunk[:cut])
		if bounds[cut] {
			if err != nil {
				t.Fatalf("boundary truncation at %d: %v", cut, err)
			}
		} else if !errors.Is(err, ErrBadFrame) {
			t.Fatalf("truncation at %d validated %d records (%v)", cut, n, err)
		}
	}
}

// TestValidateFramesRejectsBadStructure: shapes a CRC cannot catch,
// because the checksum was computed over them.
func TestValidateFramesRejectsBadStructure(t *testing.T) {
	recs := []Record{{Key: "a", Value: 1}, {Key: "b", Value: 2}, {Key: "a", Value: 3}}
	reseal := func(mutate func(f []byte) []byte) []byte {
		f := mutate(AppendRecordFrames(nil, recs))
		le.PutUint32(f, uint32(len(f)-frameHdrLen))
		le.PutUint32(f[4:], crc32.Checksum(f[frameHdrLen:], castagnoli))
		return f
	}
	idsAt := frameHdrLen + bodyFixedLen + 2*(4+1)
	cases := map[string][]byte{
		"id beyond the dictionary": reseal(func(f []byte) []byte { f[idsAt+1] = 2; return f }),
		"count above the columns":  reseal(func(f []byte) []byte { le.PutUint32(f[frameHdrLen:], 4); return f }),
		"count below the columns":  reseal(func(f []byte) []byte { le.PutUint32(f[frameHdrLen:], 2); return f }),
		"count zero":               reseal(func(f []byte) []byte { le.PutUint32(f[frameHdrLen:], 0); return f }),
		"empty dictionary":         reseal(func(f []byte) []byte { le.PutUint16(f[frameHdrLen+4:], 0); return f }),
		"more keys than records":   reseal(func(f []byte) []byte { le.PutUint16(f[frameHdrLen+4:], 4); return f }),
		"key length past the body": reseal(func(f []byte) []byte { le.PutUint32(f[frameHdrLen+bodyFixedLen:], 1<<31); return f }),
		"column byte missing":      reseal(func(f []byte) []byte { return f[:len(f)-1] }),
		"column byte extra":        reseal(func(f []byte) []byte { return append(f, 0) }),
	}
	_, cases["time code 5"] = framePerCode()
	over := AppendRecordFrames(nil, recs)
	le.PutUint32(over, maxFramePayload+1) // a body length no reader may size a slice by
	cases["body over the cap"] = over
	for name, frame := range cases {
		if n, err := ValidateFrames(frame); !errors.Is(err, ErrBadFrame) {
			t.Errorf("%s: ValidateFrames = %d, %v; want ErrBadFrame", name, n, err)
		}
		if _, err := NewMemLog().AppendFrames(frame, len(recs)); err == nil && name != "id beyond the dictionary" {
			t.Errorf("%s: a log accepted the frame", name)
		}
	}
	// The one shape only the full check sees must still never index out
	// of range downstream: a cut read of it is an error, not a panic.
	l := NewMemLog()
	if _, err := l.AppendFrames(cases["id beyond the dictionary"], len(recs)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := l.ReadFrames(1, 2, nil); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("cut read of an out-of-range id: %v", err)
	}
}

// FuzzValidateFrames drives arbitrary bytes through the validation
// gate. Whatever passes must be coherent end to end: the structure walk
// agrees, iteration reassembles the exact input, the columns decode,
// every cut re-encodes to a valid frame, and a MemLog accepts and
// round-trips it byte for byte.
func FuzzValidateFrames(f *testing.F) {
	f.Add([]byte{})
	f.Add(AppendRecordFrames(nil, frameRecs(1)))
	f.Add(AppendRecordFrames(nil, frameRecs(5)))
	f.Add(corruptionChunk())
	f.Add([]byte{20, 0, 0, 0, 1, 2, 3, 4})
	f.Add(bytes.Repeat([]byte{0xff}, 64))
	perCode, code5 := framePerCode()
	for _, frame := range perCode {
		f.Add(frame)
	}
	f.Add(code5)
	f.Fuzz(func(t *testing.T, b []byte) {
		n, err := ValidateFrames(b)
		if err != nil {
			if !errors.Is(err, ErrBadFrame) && !errors.Is(err, ErrFrameCRC) {
				t.Fatalf("ValidateFrames: unexpected error %v", err)
			}
			return
		}
		if _, cerr := frameSpans(nil, b, n); cerr != nil {
			t.Fatalf("frameSpans after ValidateFrames = %d: %v", n, cerr)
		}
		var rejoined []byte
		var f Frame
		for rest := b; len(rest) > 0; rest = rest[len(f.Raw):] {
			if ferr := f.Parse(rest); ferr != nil {
				t.Fatalf("Parse: %v", ferr)
			}
			rejoined = append(rejoined, f.Raw...)
			for _, cut := range [][2]int{{0, 1}, {f.Count - 1, f.Count}, {f.Count / 2, f.Count}} {
				s, serr := SliceFrames(nil, f.Raw, cut[0], cut[1])
				if serr != nil {
					t.Fatalf("SliceFrames%v of a valid frame: %v", cut, serr)
				}
				if sn, verr := ValidateFrames(s); verr != nil || sn != cut[1]-cut[0] {
					t.Fatalf("SliceFrames%v re-encoded %d records, %v", cut, sn, verr)
				}
			}
		}
		if !bytes.Equal(rejoined, b) {
			t.Fatal("iterated frames do not reassemble the chunk")
		}
		if got := decodeFrames(t, b); len(got) != n {
			t.Fatalf("decoded %d of %d records", len(got), n)
		}
		l := NewMemLog()
		if _, aerr := l.AppendFrames(b, n); aerr != nil {
			t.Fatalf("AppendFrames rejected a validated chunk: %v", aerr)
		}
		got, rn, rerr := l.ReadFrames(0, n, nil)
		if rerr != nil || rn != n || !bytes.Equal(got, b) {
			t.Fatalf("ReadFrames = %d, %v; round trip broken", rn, rerr)
		}
	})
}

// FuzzMemLogAppendFrames feeds arbitrary (frames, count) pairs to the
// raw append surface: it must never panic or partially mutate — either
// the chunk is rejected whole or the watermark advances by count and
// the bytes read back verbatim — and a cut read of whatever it took in
// answers or errors, but never reads out of range.
func FuzzMemLogAppendFrames(f *testing.F) {
	valid := AppendRecordFrames(nil, frameRecs(3))
	f.Add(valid, 3)
	f.Add(valid, 2)
	f.Add(valid[:len(valid)-1], 3)
	f.Add([]byte{}, 0)
	f.Add(bytes.Repeat([]byte{7}, 40), 1)
	perCode, code5 := framePerCode()
	for _, frame := range perCode {
		f.Add(frame, 6)
	}
	f.Add(code5, 6)
	f.Fuzz(func(t *testing.T, frames []byte, count int) {
		if count < 0 || count > 1<<16 {
			return
		}
		l := NewMemLog()
		if _, err := l.AppendFrames(frames, count); err != nil {
			if l.HighWatermark() != 0 {
				t.Fatalf("watermark %d after rejected append", l.HighWatermark())
			}
			return
		}
		if hwm := l.HighWatermark(); hwm != int64(count) {
			t.Fatalf("watermark %d after appending %d records", hwm, count)
		}
		got, n, err := l.ReadFrames(0, count, nil)
		if err != nil || n != count || !bytes.Equal(got, frames) {
			t.Fatalf("ReadFrames = %d, %v; bytes mismatch %v", n, err, !bytes.Equal(got, frames))
		}
		if count > 1 {
			if _, n, err := l.ReadFrames(1, count, nil); err == nil && n != count-1 {
				t.Fatalf("cut read = %d records, want %d", n, count-1)
			}
		}
	})
}

// TestValidateFramesAllocatesNothing: the wire's validation gate and the
// append's structure walk parse each frame into a Frame on the stack, so
// a chunk of small-dictionary frames costs no allocation.
func TestValidateFramesAllocatesNothing(t *testing.T) {
	var chunk []byte
	for at := 0; at < 4; at++ {
		chunk = AppendRecordFrames(chunk, frameRecs(125))
	}
	if n, err := ValidateFrames(chunk); err != nil || n != 4*125 {
		t.Fatalf("ValidateFrames = %d, %v", n, err)
	}
	var buf [8]span
	for name, walk := range map[string]func(){
		"ValidateFrames": func() { _, _ = ValidateFrames(chunk) },
		"frameSpans":     func() { _, _ = frameSpans(buf[:0], chunk, 4*125) },
	} {
		if allocs := testing.AllocsPerRun(100, walk); allocs != 0 {
			t.Errorf("%s over 4 frames: %v allocations, want 0", name, allocs)
		}
	}
}

// TestFrameKeyTableSpills: a dictionary larger than the Frame's inline
// key table — here 300 keys, with two-byte ids — parses, validates,
// slices and decodes like a small one.
func TestFrameKeyTableSpills(t *testing.T) {
	recs := randomBatch(rand.New(rand.NewSource(5)), 900, 300)
	chunk := AppendRecordFrames(nil, recs)
	var f Frame
	if err := f.Parse(chunk); err != nil || f.ndict != 300 || len(f.Raw) != len(chunk) {
		t.Fatalf("Parse = %v, ndict %d, want one frame of 300 keys", err, f.ndict)
	}
	if n, err := ValidateFrames(chunk); err != nil || n != len(recs) {
		t.Fatalf("ValidateFrames = %d, %v", n, err)
	}
	sameRecords(t, "300 keys", decodeFrames(t, chunk), recs)
	cut, err := SliceFrames(nil, chunk, 100, 700)
	if err != nil {
		t.Fatal(err)
	}
	sameRecords(t, "300 keys [100:700]", decodeFrames(t, cut), recs[100:700])
}
