package storage

import (
	"fmt"
	"testing"
	"time"
)

// Microbenchmarks for the storage engine: the frame builder, the
// in-memory MemLog, and the durable FileLog across fsync policies.
//
//	go test ./internal/broker/storage -run '^$' -bench . -benchtime 1s

// benchFrame is the records per frame of the log benches: one
// partition's share of a 500-record produce over 4 partitions, the
// batch the whole-pipeline benchmark appends.
const benchFrame = 125

// benchRecs builds n records over keys stratum keys, the key of record
// i picked by keyOf.
func benchRecs(n, keys int, keyOf func(i int) int) []Record {
	base := time.Date(2017, 12, 11, 0, 0, 0, 0, time.UTC)
	names := make([]string, keys)
	for k := range names {
		names[k] = fmt.Sprintf("sensor-%02d", k)
	}
	out := make([]Record, n)
	for i := range out {
		out[i] = Record{
			Key:   names[keyOf(i)%keys],
			Value: float64(i) * 1.5,
			Time:  base.Add(time.Duration(i) * time.Millisecond),
		}
	}
	return out
}

// benchChunk is a chunk of `records` records in frames of benchFrame,
// four alternating keys each.
func benchChunk(records int) []byte {
	recs := benchRecs(records, 4, func(i int) int { return i })
	var chunk []byte
	for at := 0; at < records; at += benchFrame {
		chunk = AppendRecordFrames(chunk, recs[at:min(at+benchFrame, records)])
	}
	return chunk
}

func reportItems(b *testing.B, items int64) {
	if elapsed := b.Elapsed().Seconds(); elapsed > 0 {
		b.ReportMetric(float64(items)/elapsed, "items/s")
	}
}

// BenchmarkBatchBuilder frames one 500-record produce into 4 partitions.
// alternating16 is the whole-pipeline benchmark's shape — 16 keys taking
// turns, so no record repeats its predecessor's key and every one pays
// the map lookup; skewed6 is the paper's skew, where the previous-key
// fast path carries most records.
func BenchmarkBatchBuilder(b *testing.B) {
	shapes := map[string][]Record{
		"alternating16": benchRecs(500, 16, func(i int) int { return i }),
		"skewed6": benchRecs(500, 6, func(i int) int {
			if i%10 < 8 {
				return 0
			}
			return i % 6
		}),
	}
	route := func(key string) int { return int(key[len(key)-1]) % 4 }
	for name, recs := range shapes {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				bb := GetBatchBuilder(4, route)
				for i := range recs {
					bb.Add(&recs[i])
				}
				for p := 0; p < 4; p++ {
					if frames, _ := bb.Frames(p); len(frames) == 0 {
						b.Fatal("empty partition")
					}
				}
				bb.Release()
			}
			reportItems(b, int64(b.N)*int64(len(recs)))
		})
	}
}

// BenchmarkMemLogAppend appends one frame per call, and a four-frame
// chunk per call (a backfill section spanning four batches).
func BenchmarkMemLogAppend(b *testing.B) {
	for _, frames := range []int{1, 4} {
		b.Run(fmt.Sprintf("frames=%d", frames), func(b *testing.B) {
			l := NewMemLog()
			chunk := benchChunk(frames * benchFrame)
			b.ReportAllocs()
			for b.Loop() {
				if _, err := l.AppendFrames(chunk, frames*benchFrame); err != nil {
					b.Fatal(err)
				}
			}
			reportItems(b, int64(b.N)*int64(frames*benchFrame))
		})
	}
}

// benchRead reads `batch` records at a time from a loaded log, at frame
// boundaries (every frame copied as stored) or one record past them
// (the first and last frame of every read re-encoded).
func benchRead(b *testing.B, l Log, loaded int) {
	const batch = 8 * benchFrame
	for name, skew := range map[string]int64{"aligned": 0, "one-cut": 1} {
		b.Run(name, func(b *testing.B) {
			var buf []byte
			b.ReportAllocs()
			i := 0
			for b.Loop() {
				off := int64((i*7919)%(loaded/benchFrame-9))*benchFrame + skew
				frames, n, err := l.ReadFrames(off, batch, buf[:0])
				if err != nil || n != batch {
					b.Fatalf("read %d records at %d, %v", n, off, err)
				}
				buf = frames
				i++
			}
			reportItems(b, int64(b.N)*batch)
		})
	}
}

func BenchmarkMemLogRead(b *testing.B) {
	const loaded = 64 * 4000
	l := NewMemLog()
	chunk := benchChunk(4000)
	for i := 0; i < loaded/4000; i++ {
		if _, err := l.AppendFrames(chunk, 4000); err != nil {
			b.Fatal(err)
		}
	}
	benchRead(b, l, loaded)
}

func BenchmarkFileLogAppend(b *testing.B) {
	const batch = 8 * benchFrame
	for _, policy := range []SyncPolicy{SyncNone, SyncInterval, SyncAlways} {
		b.Run("fsync="+policy.String(), func(b *testing.B) {
			l, err := OpenFileLog(b.TempDir(), FileConfig{Policy: policy})
			if err != nil {
				b.Fatal(err)
			}
			defer func() { _ = l.Close() }()
			chunk := benchChunk(batch)
			b.ReportAllocs()
			for b.Loop() {
				if _, err := l.AppendFrames(chunk, batch); err != nil {
					b.Fatal(err)
				}
			}
			reportItems(b, int64(b.N)*batch)
		})
	}
}

func BenchmarkFileLogRead(b *testing.B) {
	l, err := OpenFileLog(b.TempDir(), FileConfig{Policy: SyncNone})
	if err != nil {
		b.Fatal(err)
	}
	defer func() { _ = l.Close() }()
	const loaded = 32 * 4000
	chunk := benchChunk(4000)
	for i := 0; i < loaded/4000; i++ {
		if _, err := l.AppendFrames(chunk, 4000); err != nil {
			b.Fatal(err)
		}
	}
	benchRead(b, l, loaded)
}

func BenchmarkFileLogRecover(b *testing.B) {
	for _, segs := range []int{4, 32} {
		b.Run(fmt.Sprintf("segments=%d", segs), func(b *testing.B) {
			dir := b.TempDir()
			l, err := OpenFileLog(dir, FileConfig{Policy: SyncNone})
			if err != nil {
				b.Fatal(err)
			}
			chunk := benchChunk(4096)
			for i := 0; i < segs; i++ {
				if _, err := l.AppendFrames(chunk, 4096); err != nil {
					b.Fatal(err)
				}
			}
			_ = l.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				re, err := OpenFileLog(dir, FileConfig{Policy: SyncNone})
				if err != nil {
					b.Fatal(err)
				}
				if re.HighWatermark() != int64(segs)*4096 {
					b.Fatal("short recovery")
				}
				b.StopTimer()
				_ = re.Close()
				b.StartTimer()
			}
			reportItems(b, int64(b.N)*int64(segs)*4096)
		})
	}
}
