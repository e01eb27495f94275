package storage_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

	"streamapprox/internal/broker/storage"
	"streamapprox/internal/workload"
	"streamapprox/internal/xrand"
)

// framed is the chunk of each of 4 partitions after produces of the
// records, each produce framed by its own BatchBuilder routed by FNV-1a,
// as the broker and its routing client frame a produce.
func framed(produces [][]storage.Record) [4][]byte {
	var chunks [4][]byte
	for _, recs := range produces {
		bb := storage.GetBatchBuilder(4, func(key string) int { return fnv1a(key, 4) })
		for i := range recs {
			bb.Add(&recs[i])
		}
		for p := range chunks {
			frames, _ := bb.Frames(p)
			chunks[p] = append(chunks[p], frames...)
		}
		bb.Release()
	}
	return chunks
}

// fnv1a is the broker's key → partition function: 32-bit FNV-1a of the
// key bytes, modulo parts.
func fnv1a(key string, parts int) int {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h = (h ^ uint32(key[i])) * 16777619
	}
	return int(h % uint32(parts))
}

// clusterSatProduces is cluster-sat's shape: 400 produces of 500 records,
// keys s00–s15 in turn, every record of a produce stamped alike.
func clusterSatProduces() [][]storage.Record {
	base := time.Date(2017, 12, 11, 0, 0, 0, 0, time.UTC)
	var out [][]storage.Record
	for p := 0; p < 400; p++ {
		recs := make([]storage.Record, 500)
		stamp := base.Add(time.Duration(p*500) * 25 * time.Microsecond)
		for i := range recs {
			recs[i] = storage.Record{Key: fmt.Sprintf("s%02d", i%16), Value: float64(p*500 + i), Time: stamp}
		}
		out = append(out, recs)
	}
	return out
}

// taxiProduces is fanout-mixed's shape: 200 000 taxi events over 100 s
// in 1 000-record produces.
func taxiProduces() [][]storage.Record {
	events := workload.TaxiEvents(xrand.New(1), 200000, 100*time.Second)
	var out [][]storage.Record
	for at := 0; at < len(events); at += 1000 {
		recs := make([]storage.Record, 0, 1000)
		for _, e := range events[at:min(at+1000, len(events))] {
			recs = append(recs, storage.Record{Key: e.Stratum, Value: e.Value, Time: e.Time})
		}
		out = append(out, recs)
	}
	return out
}

// unshrinkableProduces is a shape no packing or scaling narrows: 2000
// records over 80 keys in turn, 20 on each partition, at random
// nanosecond times, in 500-record produces — frames of 20 keys with
// one-byte ids, and four-byte offsets with no common power of ten.
func unshrinkableProduces() [][]storage.Record {
	var keys []string
	var perPart [4]int
	for k := 0; len(keys) < 80; k++ {
		key := fmt.Sprintf("s%03d", k)
		if p := fnv1a(key, 4); perPart[p] < 20 {
			perPart[p]++
			keys = append(keys, key)
		}
	}
	rng := rand.New(rand.NewSource(20))
	base := int64(1700000000000000000)
	var out [][]storage.Record
	for p := 0; p < 4; p++ {
		recs := make([]storage.Record, 500)
		for i := range recs {
			recs[i] = storage.Record{Key: keys[i%len(keys)], Value: rng.Float64(), Time: time.Unix(0, base+rng.Int63n(1e9)).UTC()}
		}
		out = append(out, recs)
		base += 1e9
	}
	return out
}

// TestFrameBytesPerRecord counts what the benchmark's record shapes cost
// in the log, frames and all: cluster-sat's 16 keys over 4 partitions
// (4 keys a frame, 2-bit ids, no time column) and fanout-mixed's taxi
// events (1-bit ids on most partitions, offsets in whole 100 µs). A shape
// no packing narrows is framed byte for byte as the build before packing
// framed it (testdata/parent-unshrunk.bin, written by commit b79a451 from
// the same generator).
func TestFrameBytesPerRecord(t *testing.T) {
	for _, c := range []struct {
		name     string
		produces [][]storage.Record
		most     float64
	}{
		{"cluster-sat", clusterSatProduces(), 8.70},
		{"fanout-mixed", taxiProduces(), 10.35},
	} {
		chunks, produced, size := framed(c.produces), 0, 0
		for _, recs := range c.produces {
			produced += len(recs)
		}
		records := produced
		for p, chunk := range chunks {
			n, err := storage.ValidateFrames(chunk)
			if err != nil {
				t.Fatalf("%s partition %d: %v", c.name, p, err)
			}
			records -= n
			size += len(chunk)
		}
		if records != 0 {
			t.Fatalf("%s: the chunks hold %d records fewer than produced", c.name, records)
		}
		perRecord := float64(size) / float64(produced)
		t.Logf("%s: %.3f B per record", c.name, perRecord)
		if perRecord > c.most {
			t.Errorf("%s: %.3f B per record; want at most %.2f", c.name, perRecord, c.most)
		}
	}

	parent, err := os.ReadFile(filepath.Join("testdata", "parent-unshrunk.bin"))
	if err != nil {
		t.Fatal(err)
	}
	chunks := framed(unshrinkableProduces())
	if got := bytes.Join(chunks[:], nil); !bytes.Equal(got, parent) {
		t.Fatalf("20 keys at random nanoseconds framed as %d bytes, %d before packing; want them byte for byte", len(got), len(parent))
	}
}
