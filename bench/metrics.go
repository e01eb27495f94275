package main

// runSeconds is the run length BENCHMARK.json fixes; the per-workload
// rates in workloads.go are frozen against it.
const runSeconds = 10

// endToEnd are the metrics a user of the system would see, taken from an
// untraced run and reported on every workload. Bounds are the share of
// the parent's median a metric may worsen by.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "items_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "rel_err_mean", Unit: "ratio", Better: "lower", Bound: 0.25},
	{Name: "bound_coverage", Unit: "ratio", Better: "higher", Bound: 0.05},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.25},
}

// perLayer are the metrics of single layers, taken from a traced run:
// spans around the benchmark's own calls into each layer, the layers'
// own registries read at the end of the run, and the single-threaded
// staged pass (stage.*). Moves records the prediction: which end-to-end
// metric the layer metric should move, on which workload.
var perLayer = []metricDef{
	// Demoted from end-to-end: on this machine two sets of runs of the
	// same code disagree by more than the widest bound the contract allows
	// (README.md, "Demoted").
	{Name: "cpu_ns_per_item", Unit: "ns", Better: "lower", Moves: "end to end everywhere; rises with the hypervisor's stolen share"},
	{Name: "result_latency_p50_ms", Unit: "ms", Better: "lower", Moves: "end to end on cluster-paced; elsewhere it is queueing behind the lead cap"},
	{Name: "result_latency_p95_ms", Unit: "ms", Better: "lower", Moves: "end to end on cluster-paced"},
	{Name: "produce_ack_p50_ms", Unit: "ms", Better: "lower", Moves: "end to end on cluster-sat, cluster-paced"},
	{Name: "produce_ack_p99_ms", Unit: "ms", Better: "lower", Moves: "end to end on cluster-sat, cluster-paced"},

	{Name: "gen.ns_per_item", Unit: "ns", Better: "lower", Moves: "none: subtract from cpu_ns_per_item"},
	{Name: "gen.late_p99_ms", Unit: "ms", Better: "lower", Moves: "none: above one batch period (3.3 ms) cluster-paced is invalid"},

	{Name: "broker.produce_calls", Unit: "count", Better: "lower", Moves: "items_per_s on cluster-sat"},
	{Name: "broker.produce_busy_s", Unit: "s", Better: "lower", Moves: "items_per_s on cluster-sat"},
	{Name: "broker.produce_ns_per_item", Unit: "ns", Better: "lower", Moves: "items_per_s, produce_ack_* on cluster-sat; none on lib-skew, fanout-mixed"},
	{Name: "broker.produce_failed", Unit: "count", Better: "lower", Moves: "failed ops anywhere"},
	{Name: "broker.request_p99_ms", Unit: "ms", Better: "lower", Moves: "produce_ack_p99_ms on cluster-sat, cluster-paced"},

	{Name: "broker.replicate_batches", Unit: "count", Better: "lower", Moves: "produce_ack_p50_ms, items_per_s on cluster-sat"},
	{Name: "broker.replicate_partitions_per_batch", Unit: "count", Better: "higher", Moves: "produce_ack_p50_ms on cluster-sat"},
	{Name: "broker.replicate_bytes_per_item", Unit: "B", Better: "lower", Moves: "cpu_ns_per_item on cluster-sat"},
	{Name: "broker.group_wakeups", Unit: "count", Better: "lower", Moves: "produce_ack_p50_ms on cluster-sat"},

	{Name: "broker.fetch_calls", Unit: "count", Better: "lower", Moves: "cpu_ns_per_item on cluster-sat; must stay O(partitions) on fanout-mixed"},
	{Name: "broker.fetch_busy_s", Unit: "s", Better: "lower", Moves: "cpu_ns_per_item on cluster-sat"},
	{Name: "broker.fetch_ns_per_item", Unit: "ns", Better: "lower", Moves: "cpu_ns_per_item on cluster-sat"},
	{Name: "broker.fetch_items_per_call", Unit: "count", Better: "higher", Moves: "cpu_ns_per_item on cluster-sat"},
	{Name: "broker.fetch_empty_ratio", Unit: "ratio", Better: "lower", Moves: "result_latency_* on cluster-paced (empty-poll cadence)"},
	{Name: "broker.hwm_calls", Unit: "count", Better: "lower", Moves: "cpu_ns_per_item on cluster-sat"},
	{Name: "broker.ingest_lag_max", Unit: "count", Better: "lower", Moves: "result_latency_* on cluster-paced"},

	{Name: "stream.decode_ns_per_item", Unit: "ns", Better: "lower", Moves: "cpu_ns_per_item on cluster-sat"},
	{Name: "stream.batch_records_avg", Unit: "count", Better: "higher", Moves: "cpu_ns_per_item on cluster-sat"},

	{Name: "server.deliveries", Unit: "count", Better: "higher", Moves: "items_per_s on fanout-mixed"},
	{Name: "server.shed_total", Unit: "count", Better: "lower", Moves: "above 0 predicts rel_err_mean/bound_coverage loss"},
	{Name: "server.queue_depth_max", Unit: "count", Better: "lower", Moves: "items_per_s on fanout-mixed"},
	{Name: "server.late_events", Unit: "count", Better: "lower", Moves: "above 0 predicts rel_err_mean/bound_coverage loss"},
	{Name: "server.parts_dropped", Unit: "count", Better: "lower", Moves: "above 0 predicts rel_err_mean/bound_coverage loss"},
	{Name: "server.sampled_ratio", Unit: "ratio", Better: "lower", Moves: "cpu_ns_per_item against rel_err_mean, everywhere"},
	{Name: "server.catchup_s", Unit: "s", Better: "lower", Moves: "items_per_s on fanout-mixed"},
	{Name: "server.register_ms", Unit: "ms", Better: "lower", Moves: "setup_s"},

	{Name: "server.windows_merged", Unit: "count", Better: "higher", Moves: "none: work count"},
	{Name: "server.merge_wait_p50_ms", Unit: "ms", Better: "lower", Moves: "result_latency_p50_ms on cluster-paced"},
	{Name: "server.merge_wait_p95_ms", Unit: "ms", Better: "lower", Moves: "result_latency_p95_ms on cluster-paced (slowest shard sets it)"},
	{Name: "server.results_http_ms", Unit: "ms", Better: "lower", Moves: "result_latency_* on cluster-paced"},

	{Name: "session.snapshot_ms", Unit: "ms", Better: "lower", Moves: "none: checkpoint cost, state size"},
	{Name: "session.snapshot_bytes", Unit: "B", Better: "lower", Moves: "peak_rss_mb"},
	{Name: "sampling.accept_ratio", Unit: "ratio", Better: "lower", Moves: "items_per_s on lib-skew (skip regime) and fanout-mixed (fill regime)"},

	{Name: "stage.encode_ns_per_item", Unit: "ns", Better: "lower", Moves: "cpu_ns_per_item on cluster-sat"},
	{Name: "stage.append_ns_per_item", Unit: "ns", Better: "lower", Moves: "cpu_ns_per_item on cluster-sat"},
	{Name: "stage.fetch_decode_ns_per_item", Unit: "ns", Better: "lower", Moves: "cpu_ns_per_item on cluster-sat"},
	{Name: "stage.sort_ns_per_item", Unit: "ns", Better: "lower", Moves: "cpu_ns_per_item on fanout-mixed only (the others hit the ordered fast path)"},
	{Name: "stage.push_ns_per_item", Unit: "ns", Better: "lower", Moves: "items_per_s, cpu_ns_per_item on lib-skew, then fanout-mixed"},
	{Name: "stage.poll_ns_per_window", Unit: "ns", Better: "lower", Moves: "cpu_ns_per_item on fanout-mixed"},
	{Name: "stage.add_ns_per_item", Unit: "ns", Better: "lower", Moves: "items_per_s on lib-skew and fanout-mixed; rel_err_mean must not move"},
	{Name: "stage.finish_ns_per_window", Unit: "ns", Better: "lower", Moves: "cpu_ns_per_item on fanout-mixed"},
	{Name: "stage.estimate_ns_per_sample", Unit: "ns", Better: "lower", Moves: "cpu_ns_per_item on fanout-mixed"},
	{Name: "stage.merge_ns_per_window", Unit: "ns", Better: "lower", Moves: "cpu_ns_per_item on fanout-mixed"},
	{Name: "stage.sum_ns_per_item", Unit: "ns", Better: "lower", Moves: "explains cpu_ns_per_item on cluster-sat"},
	{Name: "stage.unattributed_pct", Unit: "%", Better: "lower", Moves: "none: to be driven toward 10 by in-program tracing"},

	{Name: "proc.alloc_bytes_per_item", Unit: "B", Better: "lower", Moves: "peak_rss_mb, cpu_ns_per_item everywhere"},
	{Name: "proc.gc_pause_ms", Unit: "ms", Better: "lower", Moves: "produce_ack_p99_ms, result_latency_p95_ms"},
	{Name: "proc.goroutines_peak", Unit: "count", Better: "lower", Moves: "peak_rss_mb"},
	{Name: "trace.items_per_s", Unit: "1/s", Better: "higher", Moves: "none: against untraced items_per_s it is the tracing overhead"},
	{Name: "trace.spans", Unit: "count", Better: "lower", Moves: "none"},
}
