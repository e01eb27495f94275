package storage

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// The fixtures of this file were written by the build before frames
// packed their ids or scaled their times (commit b79a451), from the
// generators below, which use nothing that build lacks:
//
//	testdata/parent-frames.bin     AppendRecordFrames of each parentLayoutBatches batch, in order
//	testdata/parent-unshrunk.bin   bytes_test.go's unshrinkableProduces, framed, partition after partition

// parentLayoutBatches covers every layout that build writes: each time
// code (no offsets; 1-, 2- and 4-byte offsets; eight-byte times, from a
// wide span and from a zero time among real ones) under one-byte ids
// (1, 3 and 20 keys) and two-byte ids (300 keys). Each batch is one
// frame.
func parentLayoutBatches() [][]Record {
	rng := rand.New(rand.NewSource(85))
	spans := []int64{0, 200, 60000, 4000000000, 1 << 33, -1} // -1: a zero time among real ones
	var out [][]Record
	for _, keys := range []int{1, 3, 20, 300} {
		for _, span := range spans {
			recs := make([]Record, keys+12)
			base := int64(1700000000000000000) + rng.Int63n(1e12)
			for i := range recs {
				k := i
				if i >= keys {
					k = rng.Intn(keys)
				}
				off := int64(0)
				if span > 0 {
					off = rng.Int63n(span + 1)
				}
				recs[i] = Record{Key: fmt.Sprintf("k%d", k), Value: rng.NormFloat64(), Time: unixNano(base + off)}
			}
			if keys == 3 {
				recs[1].Key = "" // the empty key is a dictionary entry like any other
			}
			switch span {
			case -1:
				recs[len(recs)/2].Time = unixNano(zeroTimeNanos)
			case 0:
			default:
				recs[0].Time, recs[len(recs)-1].Time = unixNano(base), unixNano(base+span)
			}
			out = append(out, recs)
		}
	}
	return out
}

// unixNano is the time ns unix nanos stand for: the zero time at
// zeroTimeNanos.
func unixNano(ns int64) time.Time {
	if ns == zeroTimeNanos {
		return time.Time{}
	}
	return time.Unix(0, ns).UTC()
}

// TestParentFramesDecode: a chunk in every layout the build before
// packing wrote decodes to the records it was written from, validates,
// slices and splits exactly.
func TestParentFramesDecode(t *testing.T) {
	parent, err := os.ReadFile(filepath.Join("testdata", "parent-frames.bin"))
	if err != nil {
		t.Fatal(err)
	}
	batches := parentLayoutBatches()
	rest := parent
	for i, recs := range batches {
		var f Frame
		if err := f.Parse(rest); err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
		frame := rest[:len(f.Raw)]
		rest = rest[len(f.Raw):]
		if n, err := ValidateFrames(frame); err != nil || n != len(recs) {
			t.Fatalf("batch %d: ValidateFrames = %d, %v", i, n, err)
		}
		what := fmt.Sprintf("batch %d (%d keys, time code %d)", i, f.ndict, tcodeOf(frame))
		sameRecords(t, what, decodeFrames(t, frame), recs)
		for i := range recs {
			if key, got := string(f.key(f.id(i))), f.time(i); key != recs[i].Key || got != nanosOf(recs[i]) {
				t.Fatalf("%s: record %d reads key %q at %d; want %+v", what, i, key, got, recs[i])
			}
		}
		cut, err := SliceFrames(nil, frame, 1, len(recs)-1)
		if err != nil || len(cut) > len(frame) {
			t.Fatalf("%s: SliceFrames = %d bytes of %d, %v", what, len(cut), len(frame), err)
		}
		sameRecords(t, what+" cut", decodeFrames(t, cut), recs[1:len(recs)-1])
		dst, counts := make([][]byte, 2), make([]int, 2)
		if err := SplitFrames(frame, func(key []byte) int { return len(key) % 2 }, dst, counts); err != nil {
			t.Fatalf("%s: SplitFrames: %v", what, err)
		}
		if counts[0]+counts[1] != len(recs) {
			t.Fatalf("%s: SplitFrames counted %v", what, counts)
		}
	}
	if len(rest) != 0 {
		t.Fatalf("%d bytes past the %d batches", len(rest), len(batches))
	}
}
