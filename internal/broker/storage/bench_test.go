package storage

import (
	"fmt"
	"testing"
	"time"
)

// Microbenchmarks for the storage engine: the durable FileLog against
// the in-memory MemLog baseline, across fsync policies.
//
//	go test ./internal/broker/storage -bench . -benchtime 1s

func benchRecs(n int) []Record {
	base := time.Date(2017, 12, 11, 0, 0, 0, 0, time.UTC)
	out := make([]Record, n)
	for i := range out {
		out[i] = Record{
			Key:   "sensor-42",
			Value: float64(i) * 1.5,
			Time:  base.Add(time.Duration(i) * time.Millisecond),
		}
	}
	return out
}

func reportItems(b *testing.B, items int64) {
	if elapsed := b.Elapsed().Seconds(); elapsed > 0 {
		b.ReportMetric(float64(items)/elapsed, "items/s")
	}
}

func BenchmarkFileLogAppend(b *testing.B) {
	const batch = 1000
	for _, policy := range []SyncPolicy{SyncNone, SyncInterval, SyncAlways} {
		b.Run("fsync="+policy.String(), func(b *testing.B) {
			l, err := OpenFileLog(b.TempDir(), FileConfig{Policy: policy})
			if err != nil {
				b.Fatal(err)
			}
			defer func() { _ = l.Close() }()
			chunk := AppendRecordFrames(nil, benchRecs(batch))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := l.AppendFrames(chunk, batch); err != nil {
					b.Fatal(err)
				}
			}
			reportItems(b, int64(b.N)*batch)
		})
	}
}

func BenchmarkFileLogRead(b *testing.B) {
	const batch = 1000
	l, err := OpenFileLog(b.TempDir(), FileConfig{Policy: SyncNone})
	if err != nil {
		b.Fatal(err)
	}
	defer func() { _ = l.Close() }()
	const loaded = 1 << 17
	chunk := AppendRecordFrames(nil, benchRecs(4096))
	for i := 0; i < loaded/4096; i++ {
		if _, err := l.AppendFrames(chunk, 4096); err != nil {
			b.Fatal(err)
		}
	}
	var buf []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		off := int64((i * 7919) % (loaded - batch))
		frames, n, err := l.ReadFrames(off, batch, buf[:0])
		if err != nil || n != batch {
			b.Fatalf("read %d records, %v", n, err)
		}
		buf = frames
	}
	reportItems(b, int64(b.N)*batch)
}

func BenchmarkFileLogRecover(b *testing.B) {
	for _, segs := range []int{4, 32} {
		b.Run(fmt.Sprintf("segments=%d", segs), func(b *testing.B) {
			dir := b.TempDir()
			l, err := OpenFileLog(dir, FileConfig{Policy: SyncNone})
			if err != nil {
				b.Fatal(err)
			}
			chunk := AppendRecordFrames(nil, benchRecs(4096))
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
