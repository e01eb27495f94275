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

// timeShape is a times column of n ≥ 2 records and the time code and
// texp the builder must pick for it.
type timeShape struct {
	name        string
	tcode, texp int
	times       func(rng *rand.Rand, n int) []int64 // zeroTimeNanos is the zero time
}

// spanShape draws times over [base, base+span], both ends included, at
// random positions.
func spanShape(span uint64, tcode int) timeShape {
	return timeShape{fmt.Sprintf("span %d", span), tcode, 0, func(rng *rand.Rand, n int) []int64 {
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

// scaledShape draws times base + k·10^e for k in [0, k], 0, 1 and k
// each taken once at least, so the offsets share exactly 10^e.
func scaledShape(e, k int, tcode, texp int) timeShape {
	return timeShape{fmt.Sprintf("k ≤ %d × 10^%d", k, e), tcode, texp, func(rng *rand.Rand, n int) []int64 {
		base, unit := int64(1700000000000000000)-rng.Int63n(1e12), int64(pow10[e])
		if e == 18 {
			base = math.MinInt64 + 1 + rng.Int63n(1e12)
		}
		out := make([]int64, n)
		for i := range out {
			out[i] = base + rng.Int63n(int64(k)+1)*unit
		}
		at := rng.Perm(n)
		out[at[0]], out[at[1]] = base, base+unit
		if n > 2 {
			out[at[2]] = base + int64(k)*unit
		}
		return out
	}}
}

// timeShapes reach every time code and both sides of every width's
// limit, and offsets sharing each power of ten, scaled where that
// narrows the column.
var timeShapes = []timeShape{
	{"all equal", 1, 0, func(_ *rand.Rand, n int) []int64 {
		return slices.Repeat([]int64{1700000000123456789}, n)
	}},
	{"all zero", 1, 0, func(_ *rand.Rand, n int) []int64 { return slices.Repeat([]int64{zeroTimeNanos}, n) }},
	spanShape(1<<8-1, 2), spanShape(1<<8, 3),
	spanShape(1<<16-1, 3), spanShape(1<<16, 4),
	spanShape(1<<32-1, 4), spanShape(1<<32, 0), spanShape(1<<40, 0),
	{"zero time among real ones", 0, 0, func(rng *rand.Rand, n int) []int64 {
		out := spanShape(3, 2).times(rng, n)
		out[rng.Intn(n)] = zeroTimeNanos
		return out
	}},
	{"MinInt64+1 with MaxInt64", 0, 0, func(rng *rand.Rand, n int) []int64 {
		out := make([]int64, n)
		for i := range out {
			out[i] = rng.Int63() - rng.Int63()
		}
		out[0], out[n-1] = math.MaxInt64, math.MinInt64+1
		return out
	}},
	{"pair-swapped", 3, 0, func(_ *rand.Rand, n int) []int64 {
		out := make([]int64, n)
		for i := range out {
			out[i] = 1700000000000000000 + int64(i*(1<<16-1)/(n-1))
		}
		for i := 0; i+1 < n; i += 2 {
			out[i], out[i+1] = out[i+1], out[i]
		}
		return out
	}},
	// 10^0 scales nothing; 200 × 10^e needs two bytes from e = 1, four
	// from e = 3 and eight from e = 8, one byte scaled.
	scaledShape(0, 200, 2, 0), scaledShape(1, 200, 2, 1), scaledShape(2, 200, 2, 2), scaledShape(3, 200, 2, 3),
	scaledShape(4, 200, 2, 4), scaledShape(5, 200, 2, 5), scaledShape(6, 200, 2, 6), scaledShape(7, 200, 2, 7),
	scaledShape(8, 200, 2, 8), scaledShape(9, 60000, 3, 9), scaledShape(10, 200, 2, 10), scaledShape(11, 200, 2, 11),
	scaledShape(12, 4000000, 4, 12), scaledShape(13, 200, 2, 13), scaledShape(14, 200, 2, 14), scaledShape(15, 200, 2, 15),
	scaledShape(16, 200, 2, 16), scaledShape(17, 70, 2, 17), scaledShape(18, 18, 2, 18),
	// A one-byte span has nothing to gain, and nor has a scaled span that
	// still needs as many bytes.
	scaledShape(1, 25, 2, 0), scaledShape(1, 100000, 4, 0),
	{"zero time among whole seconds", 3, 9, func(rng *rand.Rand, n int) []int64 {
		out := scaledShape(9, 60000, 3, 9).times(rng, n)
		lo := slices.Min(out)
		for i := range out {
			out[i] += zeroTimeNanos - lo // the earliest is the zero time
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
func tcodeOf(b []byte) int { return int(b[frameHdrLen+3] & 7) }

// texpOf is the texp of the frame opening b.
func texpOf(t testing.TB, b []byte) int {
	var f Frame
	if err := f.Parse(b); err != nil {
		t.Fatal(err)
	}
	e := 0
	for p := int64(1); p < f.scale; p *= 10 {
		e++
	}
	return e
}

// TestFrameRoundTripProperty: records → frame → records is the identity
// across every id width (1, 2, ≤ 4, ≤ 16, ≤ 256 and more keys, the
// empty key among them) and every time shape, read whole (Decode) and
// per record (id, time), cut (SliceFrames, never longer than its source)
// and split (SplitFrames); the builder picks the narrowest ids and time
// column; and every frame built validates.
func TestFrameRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, keys := range []int{1, 2, 3, 4, 5, 16, 17, 256, 257, 300} {
		for trial := 0; trial < 2*len(timeShapes); trial++ {
			shape := timeShapes[trial%len(timeShapes)]
			recs := randomBatch(rng, keys+2+rng.Intn(300), keys)
			if keys < 3 && trial%2 == 1 {
				for i := range recs {
					if recs[i].Key == "key-0" {
						recs[i].Key = "" // the empty key alone, or beside one other
					}
				}
			}
			recs = withTimes(recs, shape.times(rng, len(recs)))
			what := fmt.Sprintf("%d keys, %s", keys, shape.name)
			chunk := AppendRecordFrames([]byte("prefix"), recs)
			if !bytes.HasPrefix(chunk, []byte("prefix")) {
				t.Fatal("AppendRecordFrames must append")
			}
			chunk = chunk[len("prefix"):]
			if n, err := ValidateFrames(chunk); err != nil || n != len(recs) {
				t.Fatalf("%s: ValidateFrames = %d, %v; want %d", what, n, err, len(recs))
			}
			if _, err := frameSpans(nil, chunk, len(recs)); err != nil {
				t.Fatalf("%s: frameSpans: %v", what, err)
			}
			idw := map[int]int{1: 0, 2: 1, 3: 2, 4: 2, 5: 4, 16: 4, 17: 8, 256: 8}[keys]
			if keys > 256 {
				idw = 16
			}
			var f Frame
			if err := f.Parse(chunk); err != nil || len(f.Raw) != len(chunk) || f.ndict != keys || f.idw != idw {
				t.Fatalf("%s: one frame expected, got %v, ndict=%d, %d-bit ids", what, err, f.ndict, f.idw)
			}
			tw, trailer := timeWidth[shape.tcode], 8
			switch {
			case shape.tcode == 0:
				trailer = 0
			case shape.texp > 0:
				trailer = 9
			}
			if tcode, texp := tcodeOf(chunk), texpOf(t, chunk); tcode != shape.tcode || texp != shape.texp ||
				len(chunk) != frameHdrLen+bodyFixedLen+len(f.dict)+(f.Count*idw+7)/8+f.Count*(8+tw)+trailer {
				t.Fatalf("%s: time code %d, texp %d in %d bytes; want code %d, texp %d", what, tcode, texp, len(chunk), shape.tcode, shape.texp)
			}
			sameRecords(t, what, decodeFrames(t, chunk), recs)
			for i := range recs {
				if key := string(f.key(f.id(i))); key != recs[i].Key || f.time(i) != nanosOf(recs[i]) {
					t.Fatalf("%s: record %d reads key %q at %d; want %+v", what, i, key, f.time(i), recs[i])
				}
			}
			from := rng.Intn(len(recs))
			to := from + 1 + rng.Intn(len(recs)-from)
			cut, err := SliceFrames(nil, chunk, from, to)
			if err != nil || len(cut) > len(chunk) {
				t.Fatalf("%s: SliceFrames[%d:%d] = %d bytes of %d, %v", what, from, to, len(cut), len(chunk), err)
			}
			sameRecords(t, what+" cut", decodeFrames(t, cut), recs[from:to])
			dst, counts := make([][]byte, 2), make([]int, 2)
			route := func(key []byte) int { return len(key) % 2 }
			if err := SplitFrames(chunk, route, dst, counts); err != nil {
				t.Fatalf("%s: SplitFrames: %v", what, err)
			}
			for p := range dst {
				var want []Record
				for _, r := range recs {
					if route([]byte(r.Key)) == p {
						want = append(want, r)
					}
				}
				if n, err := ValidateFrames(dst[p]); err != nil || n != counts[p] || len(dst[p]) > len(chunk) {
					t.Fatalf("%s: partition %d holds %d records in %d bytes, %v", what, p, n, len(dst[p]), err)
				}
				sameRecords(t, fmt.Sprintf("%s partition %d", what, p), decodeFrames(t, dst[p]), want)
			}
		}
	}
	if got := AppendRecordFrames(nil, nil); len(got) != 0 {
		t.Fatalf("no records must frame to nothing, got %x", got)
	}
}

// nanosOf is r's time as a frame stores it.
func nanosOf(r Record) int64 {
	if r.Time.IsZero() {
		return zeroTimeNanos
	}
	return r.Time.UnixNano()
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
		if got, texp := tcodeOf(frame), texpOf(t, frame); got != shape.tcode || texp != shape.texp {
			t.Fatalf("%s: time code %d, texp %d; want %d, %d", shape.name, got, texp, shape.tcode, shape.texp)
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
	code5[frameHdrLen+3] = code5[frameHdrLen+3]&^7 | 5
	le.PutUint32(code5[4:], crc32.Checksum(code5[frameHdrLen:], castagnoli))
	return frames, code5
}

// reseal fixes frame's length and CRC after a mutation.
func reseal(frame []byte) []byte {
	le.PutUint32(frame, uint32(len(frame)-frameHdrLen))
	le.PutUint32(frame[4:], crc32.Checksum(frame[frameHdrLen:], castagnoli))
	return frame
}

// setID overwrites record i's id in frame, at the frame's id width, and
// reseals it.
func setID(t testing.TB, frame []byte, i, id int) []byte {
	var f Frame
	if err := f.Parse(frame); err != nil {
		t.Fatal(err)
	}
	at := frameHdrLen + bodyFixedLen + len(f.dict)
	switch f.idw {
	case 16:
		le.PutUint16(frame[at+2*i:], uint16(id))
	default:
		bit, mask := i*f.idw, byte(1<<f.idw-1)
		frame[at+bit>>3] = frame[at+bit>>3]&^(mask<<(bit&7)) | byte(id)<<(bit&7)
	}
	return reseal(frame)
}

// layoutSeeds holds one frame of each id width this build writes (0-,
// 1-, 2- and 4-bit ids, beside frames of 1, 2, 3 and 5 keys) and one
// with scaled times; and, resealed so only the structure check can
// refuse them, an unknown id code, an id code not this dictionary's, an
// unknown texp, the unused top bit, and an id ≥ ndict in a 3-key, 2-bit
// frame.
func layoutSeeds(t testing.TB) (valid, bad [][]byte) {
	rng := rand.New(rand.NewSource(29))
	for _, keys := range []int{1, 2, 3, 5} {
		valid = append(valid, AppendRecordFrames(nil, randomBatch(rng, keys+4, keys)))
	}
	scaled := AppendRecordFrames(nil, withTimes(randomBatch(rng, 6, 2), scaledShape(9, 60000, 3, 9).times(rng, 6)))
	valid = append(valid, scaled)
	code := func(frame []byte, mutate func(b byte) byte) []byte {
		frame = slices.Clone(frame)
		frame[frameHdrLen+3] = mutate(frame[frameHdrLen+3])
		return reseal(frame)
	}
	bad = append(bad,
		code(valid[1], func(b byte) byte { return b&^(7<<3) | 5<<3 }), // id code 5
		code(valid[2], func(b byte) byte { return b&^(7<<3) | 4<<3 }), // 4-bit ids for 3 keys
		code(valid[3], func(b byte) byte { return b | 1<<7 }),         // bit 31
		code(scaled, func(b byte) byte { return b }),                  // texp 19, set below
		setID(t, slices.Clone(valid[2]), 1, 3),                        // id 3 of 3 keys
	)
	texp := bad[3]
	texp[len(texp)-6*2-1] = 19 // before six two-byte offsets
	reseal(texp)
	return valid, bad
}

// TestParseRefusesUnknownCodes: Parse takes every layout this build
// writes and refuses a frame whose codes no build writes — an unknown id
// or time code, an id code other than its dictionary's, an unknown texp,
// the unused top bit — and ValidateFrames refuses an id past the
// dictionary at every width that can hold one: 2 bits (3 keys), 4 (5),
// 8 (17) and 16 (257).
func TestParseRefusesUnknownCodes(t *testing.T) {
	valid, bad := layoutSeeds(t)
	for i, frame := range valid {
		var f Frame
		if err := f.Parse(frame); err != nil || i < 4 && f.idw != []int{0, 1, 2, 4}[i] {
			t.Fatalf("layout %d: %d-bit ids, %v", i, f.idw, err)
		}
		if n, err := ValidateFrames(frame); err != nil || n != f.Count {
			t.Fatalf("layout %d: ValidateFrames = %d, %v", i, n, err)
		}
	}
	if got := texpOf(t, valid[4]); got != 9 {
		t.Fatalf("scaled layout has texp %d, want 9", got)
	}
	_, code5 := framePerCode()
	for i, frame := range append(bad[:4], code5) {
		var f Frame
		if err := f.Parse(frame); !errors.Is(err, ErrBadFrame) {
			t.Errorf("unknown code %d: Parse = %v, want ErrBadFrame", i, err)
		}
	}
	rng := rand.New(rand.NewSource(31))
	for _, keys := range []int{3, 5, 17, 257} {
		recs := randomBatch(rng, keys+10, keys)
		for _, i := range []int{0, len(recs) / 2, len(recs) - 1} {
			frame := setID(t, AppendRecordFrames(nil, recs), i, keys)
			if n, err := ValidateFrames(frame); !errors.Is(err, ErrBadFrame) {
				t.Errorf("%d keys, record %d's id %d: ValidateFrames = %d, %v; want ErrBadFrame", keys, i, keys, n, err)
			}
			if _, err := SliceFrames(nil, frame, 0, len(recs)-1); !errors.Is(err, ErrBadFrame) && i < len(recs)-1 {
				t.Errorf("%d keys, record %d's id %d: a cut read = %v; want ErrBadFrame", keys, i, keys, err)
			}
		}
	}
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
	recs := []Record{{Key: "a", Value: 1}, {Key: "b", Value: 2}, {Key: "c", Value: 3}}
	reseal := func(mutate func(f []byte) []byte) []byte {
		f := mutate(AppendRecordFrames(nil, recs))
		le.PutUint32(f, uint32(len(f)-frameHdrLen))
		le.PutUint32(f[4:], crc32.Checksum(f[frameHdrLen:], castagnoli))
		return f
	}
	idsAt := frameHdrLen + bodyFixedLen + 3*(4+1) // three 2-bit ids: 0, 1, 2
	cases := map[string][]byte{
		"id beyond the dictionary": reseal(func(f []byte) []byte { f[idsAt] |= 3 << 4; return f }),
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
	valid, bad := layoutSeeds(f)
	for _, frame := range append(valid, bad...) {
		f.Add(frame)
	}
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
	layouts, bad := layoutSeeds(f)
	for _, frame := range append(layouts, bad...) {
		var fr Frame
		count := 6
		if fr.Parse(frame) == nil {
			count = fr.Count
		}
		f.Add(frame, count)
	}
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
