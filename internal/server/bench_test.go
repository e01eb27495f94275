package server

import (
	"fmt"
	"testing"
	"time"

	"streamapprox/internal/broker"
	"streamapprox/internal/stream"
)

// BenchmarkShardedWindowThroughput measures served windowed throughput
// as the partition count (= shard workers per query) grows. One
// iteration produces a fixed dataset into an N-partition topic,
// registers a sum query and waits until every record has flowed through
// the shard sessions and the merged windows are out. The items/s metric
// should scale from 1 to 4 shards — the scale surface the serving tier
// adds.
//
//	go test ./internal/server -bench Sharded -benchtime 3x
func BenchmarkShardedWindowThroughput(b *testing.B) {
	for _, shards := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			events := makeEvents(5, 60000) // 60s of data, 16 strata
			var items int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				bk := broker.New()
				if err := bk.CreateTopic("in", shards); err != nil {
					b.Fatal(err)
				}
				if _, err := produceEvents(bk, "in", events); err != nil {
					b.Fatal(err)
				}
				s, err := New(Config{Cluster: bk, Topic: "in", PollBackoff: 100 * time.Microsecond})
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				id, err := s.Register(Spec{
					Kind:     "sum",
					Window:   10 * time.Second,
					Slide:    5 * time.Second,
					Fraction: 0.6,
					Seed:     uint64(i + 1),
				})
				if err != nil {
					b.Fatal(err)
				}
				j, _ := s.job(id)
				deadline := time.Now().Add(30 * time.Second)
				for {
					var consumed int64
					for _, sh := range j.shards {
						consumed += sh.records.Load()
					}
					if consumed == int64(len(events)) && len(j.resultsSince(-1)) >= 5 {
						break
					}
					if time.Now().After(deadline) {
						b.Fatalf("consumed %d of %d within deadline", consumed, len(events))
					}
					time.Sleep(200 * time.Microsecond)
				}
				items += int64(len(events))
				b.StopTimer()
				s.Close()
				b.StartTimer()
			}
			b.StopTimer()
			if elapsed := b.Elapsed().Seconds(); elapsed > 0 {
				b.ReportMetric(float64(items)/elapsed, "items/s")
			}
		})
	}
}

// BenchmarkQueryConcurrency measures delivered throughput and broker
// fetch ops as the number of concurrent queries on ONE topic grows —
// the surface the shared ingest plane changes. items/s counts every
// record delivered to every query; fetches/iter shows the plane
// fetching each batch once regardless of query count.
//
//	go test ./internal/server -bench Concurrency -benchtime 3x
func BenchmarkQueryConcurrency(b *testing.B) {
	for _, queries := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("queries=%d", queries), func(b *testing.B) {
			events := makeEvents(5, 40000)
			var items, fetches int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				bk := broker.New()
				if err := bk.CreateTopic("in", 4); err != nil {
					b.Fatal(err)
				}
				cc := &countingCluster{Cluster: bk}
				s, err := New(Config{Cluster: cc, Topic: "in", PollBackoff: 100 * time.Microsecond})
				if err != nil {
					b.Fatal(err)
				}
				jobs := make([]*job, 0, queries)
				for q := 0; q < queries; q++ {
					id, err := s.Register(Spec{
						Kind:     "sum",
						Window:   10 * time.Second,
						Slide:    5 * time.Second,
						Fraction: 0.6,
						Seed:     uint64(i*queries + q + 1),
					})
					if err != nil {
						b.Fatal(err)
					}
					j, _ := s.job(id)
					jobs = append(jobs, j)
				}
				b.StartTimer()
				if _, err := produceEvents(bk, "in", events); err != nil {
					b.Fatal(err)
				}
				deadline := time.Now().Add(60 * time.Second)
				for _, j := range jobs {
					for jobRecords(j) < int64(len(events)) {
						if time.Now().After(deadline) {
							b.Fatalf("query %s consumed %d of %d within deadline",
								j.id, jobRecords(j), len(events))
						}
						time.Sleep(100 * time.Microsecond)
					}
				}
				items += int64(queries) * int64(len(events))
				b.StopTimer()
				fetches += cc.fetches.Load()
				s.Close()
				b.StartTimer()
			}
			b.StopTimer()
			if elapsed := b.Elapsed().Seconds(); elapsed > 0 {
				b.ReportMetric(float64(items)/elapsed, "items/s")
			}
			if b.N > 0 {
				b.ReportMetric(float64(fetches)/float64(b.N), "fetches/iter")
			}
		})
	}
}

// BenchmarkPlaneFanout serves fanout-mixed's query shape in process: 16
// queries, four kinds × two slides × two fractions, over one 4-partition
// topic — four sampling groups per partition. items/s counts every
// record delivered to every query.
//
//	go test ./internal/server -bench PlaneFanout -benchtime 3x
func BenchmarkPlaneFanout(b *testing.B) {
	events := makeEvents(5, 40000)
	specs := fanoutSpecs()
	var items int64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		bk := broker.New()
		if err := bk.CreateTopic("in", 4); err != nil {
			b.Fatal(err)
		}
		s, err := New(Config{Cluster: bk, Topic: "in", PollBackoff: 100 * time.Microsecond})
		if err != nil {
			b.Fatal(err)
		}
		var jobs []*job
		for _, sp := range specs {
			id, err := s.Register(sp)
			if err != nil {
				b.Fatal(err)
			}
			j, _ := s.job(id)
			jobs = append(jobs, j)
		}
		b.StartTimer()
		if _, err := produceEvents(bk, "in", events); err != nil {
			b.Fatal(err)
		}
		deadline := time.Now().Add(60 * time.Second)
		for _, j := range jobs {
			for jobRecords(j) < int64(len(events)) {
				if time.Now().After(deadline) {
					b.Fatalf("query %s consumed %d of %d within deadline", j.id, jobRecords(j), len(events))
				}
				time.Sleep(100 * time.Microsecond)
			}
		}
		items += int64(len(specs)) * int64(len(events))
		b.StopTimer()
		s.Close()
		b.StartTimer()
	}
	b.StopTimer()
	if elapsed := b.Elapsed().Seconds(); elapsed > 0 {
		b.ReportMetric(float64(items)/elapsed, "items/s")
	}
}

// BenchmarkGroupPanes is one fanout-mixed sampling group in process: a
// sum and seven more members — mean, groupby-mean, a histogram, then a
// second copy of all four — sharing one partition's sampler on a 5 s
// window sliding by 1 s. One op applies 40 one-second slides of 2000
// events (six strata) to the group, each member's merger firing its
// windows, at both of the workload's fractions; ns/pane is the time per
// finished pane of the group.
func BenchmarkGroupPanes(b *testing.B) {
	const segments, perSegment = 40, 2000
	batch := stream.GetEventBatch()
	defer batch.Release()
	var ids []int32
	for _, k := range []string{"a", "b", "c", "d", "e", "f"} {
		ids = append(ids, batch.Intern(k))
	}
	for i := 0; i < segments*perSegment; i++ {
		batch.Append(ids[i%len(ids)], float64(i%251), 0)
	}
	for _, fraction := range []float64{0.1, 0.8} {
		b.Run(fmt.Sprintf("f%.0f", 100*fraction), func(b *testing.B) {
			r := newRig(b, 1)
			var jobs []*job
			for i, kind := range []string{"sum", "mean", "groupby-mean", "histogram", "sum", "mean", "groupby-mean", "histogram"} {
				jobs = append(jobs, r.query(fmt.Sprintf("q-%d", i), Spec{Kind: kind, Window: 5 * time.Second, Slide: time.Second,
					Fraction: fraction, HistogramEdges: []float64{0, 50, 100, 150, 200, 256}, Seed: uint64(i + 1)}))
			}
			if n := r.srv.ing.parts[0].samplersGauge.Value(); n != 1 {
				b.Fatalf("%v samplers for one group", n)
			}
			epoch := int64(1 << 60)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := range batch.Times {
					batch.Times[j] = epoch + int64(j)*int64(time.Second)/perSegment
				}
				epoch += segments * int64(time.Second)
				r.apply(0, batch)
			}
			b.StopTimer()
			for _, j := range jobs {
				if len(j.resultsSince(-1)) == 0 {
					b.Fatal("no windows")
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*segments), "ns/pane")
		})
	}
}
