package main

import (
	"runtime"
	"time"

	"streamapprox"
	"streamapprox/internal/broker"
	"streamapprox/internal/broker/storage"
	"streamapprox/internal/estimate"
	"streamapprox/internal/sampling"
	"streamapprox/internal/server"
	"streamapprox/internal/stream"
	"streamapprox/internal/xrand"
)

// stagedBatches is how many produce batches of the workload's input the
// staged pass pushes through each layer: at least 256, and enough to
// cover eight slides of the workload's longest slide, so the sampler is
// measured past its first, reservoir-filling interval.
func stagedBatches(wl *workload, src *source) int {
	var slide time.Duration
	for _, q := range append(append([]server.Spec(nil), wl.queries...), wl.late...) {
		slide = max(slide, q.Slide)
	}
	events := 8 * int64(slide) * src.len() / src.span
	return max(256, int(events)/wl.batch+1)
}

// stageClock accumulates one stage's time, one clock pair per batch. The
// spans carry wall-clock times like all others; the total is the calling
// thread's CPU time, so that a co-tenant taking the machine for half of
// the staged pass does not double the waterfall.
type stageClock struct {
	tr    *tracer
	name  string
	total time.Duration
}

func (c *stageClock) time(rows int, f func()) {
	start, cpu := time.Now(), threadCPU()
	f()
	c.total += threadCPU() - cpu
	c.tr.add(c.name, start, time.Now(), -1, -1, map[string]float64{"rows": float64(rows)})
}

// stagedPass calls each layer's exported function in turn, on one
// goroutine, on a prefix of the workload's own input: frame encoding,
// broker append, fetch+decode, time sort, session push (which contains
// sampling, finishing and estimation), poll, shard merge — and,
// separately, the sampler and estimator on their own, so that push's
// self time (window segmentation) can be read off. Fan-out is kept: push,
// poll and merge run once per registered query, as the serving tier
// would. The per-item costs add up to stage.sum_ns_per_item, which is
// compared with the CPU the real run spent per item.
func stagedPass(wl *workload, src *source, tr *tracer, res *result) {
	runtime.LockOSThread() // threadCPU reads this thread's clock
	defer runtime.UnlockOSThread()
	m := res.metrics
	clock := func(name string) *stageClock { return &stageClock{tr: tr, name: "stage." + name} }
	encode, appendC, fetch, sortC := clock("encode"), clock("append"), clock("fetch_decode"), clock("sort")
	push, poll, add, finish, est, merge := clock("push"), clock("poll"), clock("add"), clock("finish"), clock("estimate"), clock("merge")

	// Input → per-partition columnar batches, through the broker when the
	// workload has one.
	parts := wl.partitions
	if wl.lib {
		parts = 1
	}
	batches := make([][]*stream.EventBatch, parts)
	items, produce := 0, stagedBatches(wl, src)
	if wl.lib {
		for k := 0; k < produce; k++ {
			b := stream.GetEventBatch()
			for i := int64(k * wl.batch); i < int64((k+1)*wl.batch); i++ {
				j := i % src.len()
				b.Append(b.Intern(src.dict[src.strata[j]]), src.values[j], src.timeOf(i))
			}
			batches[0] = append(batches[0], b)
			items += b.Len()
		}
	} else {
		bk := broker.New()
		defer bk.Close()
		if err := bk.CreateTopic(topicName, parts); err != nil {
			res.violate("staged pass: %v", err)
			return
		}
		gen := newRecordGen(src, wl.batch, wl.swapPairs, parts)
		var frames []byte
		for k := 0; k < produce; k++ {
			recs := gen.nextBatch()
			encode.time(len(recs), func() { frames = storage.AppendRecordFrames(frames[:0], recs) })
			appendC.time(len(recs), func() {
				if _, err := bk.ProduceFrames(topicName, frames, len(recs)); err != nil {
					res.violate("staged pass: append: %v", err)
				}
			})
			items += len(recs)
		}
		for p := 0; p < parts; p++ {
			for off := int64(0); ; {
				b := stream.GetEventBatch()
				var n int
				fetch.time(0, func() { n, _ = bk.FetchBatch(topicName, p, off, 4096, b) })
				if n == 0 {
					b.Release()
					break
				}
				off += int64(n)
				batches[p] = append(batches[p], b)
			}
		}
	}
	for _, pb := range batches {
		for _, b := range pb {
			sortC.time(b.Len(), b.SortByTime)
		}
	}

	// Session per (query, partition), as the serving tier runs them; the
	// windows they emit feed the merge stage.
	specs := append(append([]server.Spec(nil), wl.queries...), wl.late...)
	windows := 0
	var snapshot []byte
	var snapshotTook time.Duration
	for _, sp := range specs {
		byStart := make(map[time.Time][]streamapprox.WindowResult)
		for p, pb := range batches {
			cfg := sessionConfig(sp)
			cfg.Seed += uint64(p)
			sess := streamapprox.NewSession(cfg)
			for _, b := range pb {
				push.time(b.Len(), func() { _ = sess.PushBatch(b, 0, b.Len()) })
				var ready []streamapprox.WindowResult
				poll.time(0, func() {
					sess.Advance(b.MaxTime(0, b.Len()))
					ready = sess.Poll()
				})
				for _, wr := range ready {
					byStart[wr.Start] = append(byStart[wr.Start], wr)
				}
			}
			if snapshot == nil {
				start := time.Now()
				snapshot, _ = sess.Snapshot()
				snapshotTook = time.Since(start)
			}
		}
		isMean := sp.Kind == "mean" || sp.Kind == "groupby-mean"
		for _, shardParts := range byStart {
			windows++
			ests := make([]estimate.Estimate, len(shardParts))
			counts := make([]int64, len(shardParts))
			for i, wr := range shardParts {
				ests[i] = estimate.FromBound(wr.Overall.Value, wr.Overall.Bound, estimate.Conf95)
				counts[i] = wr.Items
			}
			merge.time(len(ests), func() {
				if isMean {
					_ = estimate.MergeMeans(ests, counts)
				} else {
					_ = estimate.MergeSums(ests)
				}
			})
		}
	}

	// The sampler and the estimator alone, per query: one OASRS per
	// partition with the budget the session would give it, fed and
	// finished one slide's worth of rows at a time.
	var offered, samples, finishes float64
	eventsPerNS := float64(src.len()) / float64(src.span)
	for _, sp := range specs {
		for p, pb := range batches {
			perSlide := int(eventsPerNS * float64(sp.Slide) * float64(rowsOf(pb)) / float64(items))
			if perSlide < 1 {
				perSlide = 1
			}
			smp := sampling.NewOASRS(int(sp.Fraction*float64(perSlide)), nil, xrand.New(sp.Seed+uint64(p)))
			inSlide := 0
			for _, b := range pb {
				for from := 0; from < b.Len(); {
					to := min(from+perSlide-inSlide, b.Len())
					add.time(to-from, func() { smp.AddBatch(b, from, to) })
					offered += float64(to - from)
					inSlide += to - from
					from = to
					if inSlide < perSlide {
						continue
					}
					inSlide = 0
					var s *sampling.Sample
					finish.time(0, func() { s = smp.Finish() })
					finishes++
					n := s.SampledCount()
					samples += float64(n)
					est.time(n, func() {
						if sp.Kind == "mean" || sp.Kind == "groupby-mean" {
							_ = estimate.Mean(s, estimate.Conf95)
						} else {
							_ = estimate.Sum(s, estimate.Conf95)
						}
					})
				}
			}
		}
	}
	for _, pb := range batches {
		for _, b := range pb {
			b.Release()
		}
	}

	n := float64(items)
	m["stage.encode_ns_per_item"] = ratio(float64(encode.total), n)
	m["stage.append_ns_per_item"] = ratio(float64(appendC.total), n)
	m["stage.fetch_decode_ns_per_item"] = ratio(float64(fetch.total), n)
	m["stage.sort_ns_per_item"] = ratio(float64(sortC.total), n)
	m["stage.push_ns_per_item"] = ratio(float64(push.total), n)
	m["stage.poll_ns_per_window"] = ratio(float64(poll.total), float64(windows))
	m["stage.add_ns_per_item"] = ratio(float64(add.total), n)
	m["stage.finish_ns_per_window"] = ratio(float64(finish.total), finishes)
	m["stage.estimate_ns_per_sample"] = ratio(float64(est.total), samples)
	m["stage.merge_ns_per_window"] = ratio(float64(merge.total), float64(windows))
	sum := ratio(float64(encode.total+appendC.total+fetch.total+sortC.total+push.total+poll.total+merge.total), n)
	m["stage.sum_ns_per_item"] = sum
	if cpu := m["cpu_ns_per_item"]; cpu > 0 {
		m["stage.unattributed_pct"] = 100 * (1 - sum/cpu)
	}
	m["sampling.accept_ratio"] = ratio(samples, offered)
	m["session.snapshot_ms"] = float64(snapshotTook) / float64(time.Millisecond)
	m["session.snapshot_bytes"] = float64(len(snapshot))
	res.note("staged pass: %d items, %d queries, %d windows; push self (segmentation) %.1f ns/item",
		items, len(specs), windows, ratio(float64(push.total-add.total-finish.total-est.total), n))
}

func rowsOf(batches []*stream.EventBatch) int {
	total := 0
	for _, b := range batches {
		total += b.Len()
	}
	return total
}

var queryKinds = map[string]streamapprox.Query{
	"sum": streamapprox.Sum, "mean": streamapprox.Mean, "groupby-sum": streamapprox.GroupBySum,
	"groupby-mean": streamapprox.GroupByMean, "histogram": streamapprox.Histogram,
}

// sessionConfig is the session a serving-tier shard would run for a
// query spec (shard i adds i to the seed).
func sessionConfig(sp server.Spec) streamapprox.SessionConfig {
	return streamapprox.SessionConfig{
		Query: queryKinds[sp.Kind], WindowSize: sp.Window, WindowSlide: sp.Slide, Fraction: sp.Fraction,
		Confidence: streamapprox.Confidence95, HistogramEdges: sp.HistogramEdges, Seed: sp.Seed,
	}
}
