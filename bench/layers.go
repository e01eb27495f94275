package main

import (
	"io"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"streamapprox/internal/broker"
	"streamapprox/internal/metrics"
	"streamapprox/internal/stream"
)

// fetchStats counts the serving tier's calls into the broker's read
// surface, as seen from the wrapper the benchmark hands to the server.
type fetchStats struct {
	calls, empty, rows, busyNS, hwmCalls atomic.Int64
}

// tracedCluster is the traced run's view of a broker connection: it
// forwards every call, counts and times fetches and watermark reads, and
// records one span per fetch. It forwards FetchBatch so the consumer
// stays on its columnar path, and the optional interfaces the ingest
// plane probes for (Close, Refresh, SetTraceID).
type tracedCluster struct {
	broker.Cluster
	tr *tracer
	st *fetchStats
}

func (c *tracedCluster) note(start time.Time, partition, n int) {
	end := time.Now()
	c.st.calls.Add(1)
	c.st.rows.Add(int64(n))
	c.st.busyNS.Add(int64(end.Sub(start)))
	if n == 0 {
		c.st.empty.Add(1)
	}
	c.tr.add("fetch", start, end, -1, -1, map[string]float64{"partition": float64(partition), "rows": float64(n)})
}

func (c *tracedCluster) Fetch(topic string, partition int, offset int64, max int) ([]broker.Record, error) {
	start := time.Now()
	recs, err := c.Cluster.Fetch(topic, partition, offset, max)
	c.note(start, partition, len(recs))
	return recs, err
}

func (c *tracedCluster) FetchBatch(topic string, partition int, offset int64, max int, b *stream.EventBatch) (int, error) {
	start := time.Now()
	n, err := c.Cluster.(broker.BatchFetcher).FetchBatch(topic, partition, offset, max, b)
	c.note(start, partition, n)
	return n, err
}

func (c *tracedCluster) HighWatermark(topic string, partition int) (int64, error) {
	c.st.hwmCalls.Add(1)
	return c.Cluster.HighWatermark(topic, partition)
}

func (c *tracedCluster) Close() error {
	if cl, ok := c.Cluster.(io.Closer); ok {
		return cl.Close()
	}
	return nil
}

func (c *tracedCluster) Refresh() error {
	if r, ok := c.Cluster.(interface{ Refresh() error }); ok {
		return r.Refresh()
	}
	return nil
}

func (c *tracedCluster) SetTraceID(id uint64) {
	if s, ok := c.Cluster.(interface{ SetTraceID(uint64) }); ok {
		s.SetTraceID(id)
	}
}

// scrape renders a registry in the exposition format an operator would
// read and parses it back, so per-layer numbers come from the same
// surface `saprox status` uses.
func scrape(reg *metrics.Registry) *metrics.Scrape {
	sc, err := metrics.ParseText(strings.NewReader(reg.Render()))
	if err != nil {
		return &metrics.Scrape{}
	}
	return sc
}

// sumOf adds every series of a family whose labels contain match.
func sumOf(scs []*metrics.Scrape, name string, match metrics.Labels) float64 {
	var total float64
	for _, sc := range scs {
		for _, s := range sc.Select(name, match) {
			total += s.Value
		}
	}
	return total
}

// mergedQuantile merges histogram series (one per partition, query or
// broker) bucket by bucket and reads the q-quantile off the merged
// distribution. It takes the live histograms rather than the scrape
// because the exposition format elides runs of equal buckets, which
// cannot be summed across series.
func mergedQuantile(hs []*metrics.Histogram, q float64) float64 {
	var m metrics.HistogramSnapshot
	for _, h := range hs {
		s := h.Snapshot()
		if m.Counts == nil {
			m = s
			continue
		}
		for i := range m.Counts {
			m.Counts[i] += s.Counts[i]
		}
		m.Count += s.Count
	}
	return m.Quantile(q)
}

// layerGauges are the gauges the traced run's sampler keeps the maxima
// of: the ingest plane's lag behind the partition high watermarks, and
// the deepest per-query delivery queue.
func (p *pipeline) layerGauges() map[string]func() float64 {
	reg := p.srv.Registry()
	return map[string]func() float64{
		"ingest_lag": func() float64 {
			var lag float64
			for part := 0; part < p.wl.partitions; part++ {
				lag += reg.Gauge("saproxd_ingest_lag_records", "", metrics.Labels{"partition": strconv.Itoa(part)}).Value()
			}
			return lag
		},
		"queue_depth": func() float64 {
			p.mu.Lock()
			ids := make([]string, len(p.queries))
			for i, q := range p.queries {
				ids[i] = q.id
			}
			p.mu.Unlock()
			var deepest float64
			for _, id := range ids {
				for part := 0; part < p.wl.partitions; part++ {
					l := metrics.Labels{"query": id, "partition": strconv.Itoa(part)}
					if v := reg.Gauge("saproxd_delivery_queue_depth", "", l).Value(); v > deepest {
						deepest = v
					}
				}
			}
			return deepest
		},
	}
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerMetrics fills a served run's per-layer metrics from outside the
// layers: the producer's own clock pairs, the fetch wrapper's counters,
// and the brokers' and the server's registries read at the end of the run.
func (p *pipeline) layerMetrics(res *result, m0, m1 mark, smp *sampler) {
	m := res.metrics
	n := float64(p.plan.measured)
	m["gen.ns_per_item"] = float64(p.genBusy) / n
	m["gen.late_p99_ms"] = summarize(p.lateMS, 0.99).Tail
	m["broker.produce_calls"] = float64(p.prodCalls)
	m["broker.produce_busy_s"] = p.prodBusy.Seconds()
	m["broker.produce_ns_per_item"] = float64(p.prodBusy) / n
	m["broker.produce_failed"] = float64(p.prodFailed)

	var bs []*metrics.Scrape
	var reqs []*metrics.Histogram
	for _, b := range p.brokers {
		bs = append(bs, scrape(b.Metrics()))
		if len(p.servers) > 0 {
			reqs = append(reqs, b.Metrics().Histogram("broker_request_seconds", "", metrics.Labels{"op": "producep"}))
		}
	}
	m["broker.request_p99_ms"] = mergedQuantile(reqs, 0.99) * 1e3
	m["broker.replicate_batches"] = sumOf(bs, "broker_replicate_batches_total", nil)
	m["broker.replicate_partitions_per_batch"] = ratio(sumOf(bs, "broker_replicate_batch_partitions_sum", nil),
		sumOf(bs, "broker_replicate_batch_partitions_count", nil))
	m["broker.replicate_bytes_per_item"] = sumOf(bs, "broker_replicate_batch_bytes_sum", nil) / float64(p.plan.total())
	m["broker.group_wakeups"] = sumOf(bs, "broker_replicate_group_wakeups_total", nil)

	calls, rows := float64(p.fs.calls.Load()), float64(p.fs.rows.Load())
	m["broker.fetch_calls"] = calls
	m["broker.fetch_busy_s"] = float64(p.fs.busyNS.Load()) / 1e9
	m["broker.fetch_ns_per_item"] = ratio(float64(p.fs.busyNS.Load()), rows)
	m["broker.fetch_items_per_call"] = ratio(rows, calls)
	m["broker.fetch_empty_ratio"] = ratio(float64(p.fs.empty.Load()), calls)
	m["broker.hwm_calls"] = float64(p.fs.hwmCalls.Load())
	m["broker.ingest_lag_max"] = smp.max["ingest_lag"]

	reg := p.srv.Registry()
	ss := []*metrics.Scrape{scrape(reg)}
	ingested := sumOf(ss, "saproxd_ingest_records_total", nil)
	m["stream.decode_ns_per_item"] = ratio(sumOf(ss, "saproxd_ingest_decode_seconds_sum", nil)*1e9, ingested)
	m["stream.batch_records_avg"] = ratio(sumOf(ss, "saproxd_ingest_batch_records_sum", nil),
		sumOf(ss, "saproxd_ingest_batch_records_count", nil))
	m["server.deliveries"] = sumOf(ss, "saproxd_shard_records_total", nil)
	m["server.shed_total"] = sumOf(ss, "saproxd_delivery_shed_total", nil)
	m["server.queue_depth_max"] = smp.max["queue_depth"]
	m["server.late_events"] = sumOf(ss, "saproxd_shard_late_events", nil)
	m["server.parts_dropped"] = sumOf(ss, "saproxd_window_parts_dropped_total", nil)
	m["server.windows_merged"] = sumOf(ss, "saproxd_windows_merged_total", nil)

	var merges []*metrics.Histogram
	var registerMS []float64
	var items, sampled float64
	p.mu.Lock()
	for _, q := range p.queries {
		for _, o := range q.windows {
			items += float64(o.mw.Items)
			sampled += float64(o.mw.Sampled)
		}
		merges = append(merges, reg.Histogram("saproxd_window_merge_seconds", "", metrics.Labels{"query": q.id}))
		registerMS = append(registerMS, q.registerMS)
		if q.late {
			// Catch-up: from registration to the arrival of the first window
			// reaching the event time the live queries had reached then.
			for _, o := range q.windows {
				if o.mw.End.UnixNano() >= q.historyEnd {
					if d := o.at.Sub(q.registeredAt).Seconds(); d > m["server.catchup_s"] {
						m["server.catchup_s"] = d
					}
					p.tr.add("catchup", q.registeredAt, o.at, -1, -1, nil)
					break
				}
			}
		}
	}
	first := p.queries[0].id
	p.mu.Unlock()
	m["server.merge_wait_p50_ms"] = mergedQuantile(merges, 0.5) * 1e3
	m["server.merge_wait_p95_ms"] = mergedQuantile(merges, 0.95) * 1e3
	m["server.register_ms"] = mean(registerMS)
	m["server.sampled_ratio"] = ratio(sampled, items)
	start := time.Now()
	if resp, err := p.httpCli.Get(p.baseURL + "/v1/queries/" + first + "/results"); err == nil {
		_, _ = io.Copy(io.Discard, resp.Body)
		_ = resp.Body.Close()
		m["server.results_http_ms"] = msSince(start, time.Now())
	}
	procMetrics(m, m0, m1, smp, n)
}

func procMetrics(m map[string]float64, m0, m1 mark, smp *sampler, n float64) {
	m["proc.alloc_bytes_per_item"] = float64(m1.allocBytes-m0.allocBytes) / n
	m["proc.gc_pause_ms"] = float64(m1.gcPause-m0.gcPause) / float64(time.Millisecond)
	m["proc.goroutines_peak"] = smp.gorMax
}

// libLayerMetrics fills what the library-only run can say about its
// layers; everything about brokers and the server stays zero.
func libLayerMetrics(res *result, l *libRun, m0, m1 mark, smp *sampler) {
	m := res.metrics
	n := float64(l.plan.measured)
	m["gen.ns_per_item"] = float64(l.genBusy) / n
	m["server.windows_merged"] = float64(len(l.windows))
	var items, sampled float64
	for _, o := range l.windows {
		items += float64(o.mw.Items)
		sampled += float64(o.mw.Sampled)
	}
	m["server.sampled_ratio"] = ratio(sampled, items)
	procMetrics(m, m0, m1, smp, n)
}
