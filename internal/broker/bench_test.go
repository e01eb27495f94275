package broker

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"streamapprox/internal/broker/storage"
	"streamapprox/internal/stream"
)

// Microbenchmarks for the broker data plane: one TCP operation each
// through the pipelined frame codec.
//
//	go test ./internal/broker -bench Wire -benchtime 2s

const benchBatch = 1000

func benchRecords(n int) []Record {
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

// benchDial serves a one-member broker and connects a client to it.
func benchDial(b *testing.B) (*Broker, *client) {
	b.Helper()
	bk := New()
	srv := serveMember(b, bk, ServerOptions{})
	cli, err := dial(srv.Addr(), DefaultDialTimeout, defaultRequestTimeout)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { _ = cli.Close() })
	return bk, cli
}

func BenchmarkWireFetch(b *testing.B) {
	bk, cli := benchDial(b)
	if err := bk.CreateTopic("bench", 1); err != nil {
		b.Fatal(err)
	}
	const preload = 64 * benchBatch
	if _, err := bk.Produce("bench", benchRecords(preload)); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		off := int64(i%64) * benchBatch
		recs, err := cli.Fetch("bench", 0, off, benchBatch)
		if err != nil {
			b.Fatal(err)
		}
		if len(recs) != benchBatch {
			b.Fatalf("fetched %d of %d", len(recs), benchBatch)
		}
	}
	reportItems(b, int64(b.N)*benchBatch)
}

// BenchmarkWireRoundTrip produces a batch and fetches it back — the
// full data-plane round trip one shard iteration costs.
func BenchmarkWireRoundTrip(b *testing.B) {
	_, cli := benchDial(b)
	if err := cli.CreateTopic("bench", 1); err != nil {
		b.Fatal(err)
	}
	batch := benchRecords(benchBatch)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := producePart(cli, "bench", 0, 0, 0, batch); err != nil {
			b.Fatal(err)
		}
		recs, err := cli.Fetch("bench", 0, int64(i)*benchBatch, benchBatch)
		if err != nil {
			b.Fatal(err)
		}
		if len(recs) != benchBatch {
			b.Fatalf("fetched %d of %d", len(recs), benchBatch)
		}
	}
	reportItems(b, 2*int64(b.N)*benchBatch)
}

// BenchmarkWirePipelinedFetch measures concurrent fetches sharing one
// connection: the pipelined client keeps them all in flight.
func BenchmarkWirePipelinedFetch(b *testing.B) {
	bk, cli := benchDial(b)
	if err := bk.CreateTopic("bench", 1); err != nil {
		b.Fatal(err)
	}
	const preload = 64 * benchBatch
	if _, err := bk.Produce("bench", benchRecords(preload)); err != nil {
		b.Fatal(err)
	}
	const workers = 4
	b.ReportAllocs()
	b.ResetTimer()
	var wg sync.WaitGroup
	var mu sync.Mutex
	var firstErr error
	per := b.N/workers + 1
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				off := int64((w*per+i)%64) * benchBatch
				if _, err := cli.Fetch("bench", 0, off, benchBatch); err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if firstErr != nil {
		b.Fatal(firstErr)
	}
	reportItems(b, int64(workers)*int64(per)*benchBatch)
}

// BenchmarkFramesToBatch is the consumer's decode: a 4096-record fetch
// of 125-record frames, four keys each, into a pooled columnar batch.
func BenchmarkFramesToBatch(b *testing.B) {
	recs := benchRecords(4096)
	for i := range recs {
		recs[i].Key = fmt.Sprintf("s%02d", i%4)
	}
	var chunk []byte
	for at := 0; at < len(recs); at += 125 {
		chunk = storage.AppendRecordFrames(chunk, recs[at:min(at+125, len(recs))])
	}
	b.ReportAllocs()
	for b.Loop() {
		eb := stream.GetEventBatch()
		if n, err := framesToBatch(chunk, len(recs), 0, eb); err != nil || n != len(recs) {
			b.Fatalf("decoded %d records, %v", n, err)
		}
		eb.Release()
	}
	reportItems(b, int64(b.N)*int64(len(recs)))
}

// BenchmarkClusterProduce is the produce ack chain on its own: one
// closed-loop caller, 500-record batches keyed across all 4 partitions
// of a 3-broker RF 2 / min-ISR 2 cluster, each call waiting for every
// partition's replicated ack. acks/s is Produce calls acknowledged per
// second.
func BenchmarkClusterProduce(b *testing.B) {
	tc := startCluster(b, 3, nil)
	cc := tc.dialCluster()
	if err := cc.CreateTopic("bench", 4); err != nil {
		b.Fatal(err)
	}
	batch := benchRecords(500)
	for i := range batch {
		batch[i].Key = fmt.Sprintf("s%02d", i%16)
	}
	if _, err := cc.Produce("bench", batch); err != nil { // dial the lanes
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cc.Produce("bench", batch); err != nil {
			b.Fatal(err)
		}
	}
	reportItems(b, int64(b.N)*int64(len(batch)))
	if elapsed := b.Elapsed().Seconds(); elapsed > 0 {
		b.ReportMetric(float64(b.N)/elapsed, "acks/s")
	}
}

func reportItems(b *testing.B, items int64) {
	if elapsed := b.Elapsed().Seconds(); elapsed > 0 {
		b.ReportMetric(float64(items)/elapsed, "items/s")
	}
}
