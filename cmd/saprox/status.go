package main

import (
	"cmp"
	"flag"
	"fmt"
	"net/http"
	"os"
	"sort"
	"strings"
	"text/tabwriter"
	"time"

	"streamapprox/internal/metrics"
)

// saprox status: scrape every broker admin endpoint and (optionally)
// saproxd's /metrics, and render a one-screen cluster view — leaders,
// ISR and log bytes per record per partition, per-follower replication
// lag, per-op wire latency quantiles, and each query's observed error
// against its target. Pure read path: everything shown is reconstructed
// from the Prometheus text expositions, so it works against any live
// cluster with no side channel.

type brokerScrape struct {
	addr string
	node string
	sc   *metrics.Scrape
	err  error
}

func runStatus(args []string) error {
	fs := flag.NewFlagSet("status", flag.ContinueOnError)
	brokersFlag := fs.String("brokers", "", "comma-separated broker ADMIN addresses (the brokerd -http listeners)")
	saproxdFlag := fs.String("saproxd", "", "saproxd address to scrape for query status (optional)")
	timeout := fs.Duration("timeout", 2*time.Second, "per-scrape HTTP timeout")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *brokersFlag == "" && *saproxdFlag == "" {
		return fmt.Errorf("status: need -brokers and/or -saproxd")
	}
	client := &http.Client{Timeout: *timeout}

	var brokers []*brokerScrape
	for _, a := range strings.Split(*brokersFlag, ",") {
		a = strings.TrimSpace(a)
		if a == "" {
			continue
		}
		b := &brokerScrape{addr: a}
		b.sc, b.err = scrapeMetrics(client, a)
		if b.err == nil {
			if infos := b.sc.Select("broker_info", nil); len(infos) > 0 {
				b.node = infos[0].Labels["node"]
			}
			if b.node == "" {
				b.node = a
			}
		}
		brokers = append(brokers, b)
	}

	if len(brokers) > 0 {
		renderBrokers(brokers)
		renderPartitions(brokers)
	}
	if *saproxdFlag != "" {
		sc, err := scrapeMetrics(client, *saproxdFlag)
		if err != nil {
			return fmt.Errorf("status: saproxd %s: %w", *saproxdFlag, err)
		}
		renderIngest(*saproxdFlag, sc)
		renderQueries(*saproxdFlag, sc)
	}
	return nil
}

// scrapeMetrics fetches and parses one /metrics endpoint.
func scrapeMetrics(client *http.Client, addr string) (*metrics.Scrape, error) {
	url := addr
	if !strings.Contains(url, "://") {
		url = "http://" + url
	}
	resp, err := client.Get(url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: %s", resp.Status)
	}
	return metrics.ParseText(resp.Body)
}

// fmtDur renders a seconds-valued quantile compactly (µs under 1ms).
func fmtDur(sec float64, ok bool) string {
	if !ok {
		return "-"
	}
	d := time.Duration(sec * float64(time.Second))
	switch {
	case d < time.Millisecond:
		return fmt.Sprintf("%dµs", d.Microseconds())
	case d < time.Second:
		return fmt.Sprintf("%.1fms", float64(d.Microseconds())/1000)
	default:
		return fmt.Sprintf("%.2fs", d.Seconds())
	}
}

// opQuantiles renders "p50/p99" for one wire op's latency histogram.
func opQuantiles(sc *metrics.Scrape, op string) string {
	m := metrics.Labels{"op": op}
	p50, ok50 := sc.Quantile("broker_request_seconds", m, 0.50)
	p99, ok99 := sc.Quantile("broker_request_seconds", m, 0.99)
	if !ok50 && !ok99 {
		return "-"
	}
	return fmtDur(p50, ok50) + "/" + fmtDur(p99, ok99)
}

func renderBrokers(brokers []*brokerScrape) {
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "BROKER\tEPOCH\tSTATE\tPRODUCE p50/p99\tFETCH p50/p99\tFSYNC p50/p99")
	for _, b := range brokers {
		if b.err != nil {
			fmt.Fprintf(w, "%s\tunreachable: %v\t\t\t\t\n", b.addr, b.err)
			continue
		}
		state := "ok"
		if v, ok := b.sc.Value("broker_joining", nil); ok && v > 0 {
			state = "joining"
		}
		epoch := "-"
		if v, ok := b.sc.Value("broker_cluster_epoch", nil); ok {
			epoch = fmt.Sprintf("%.0f", v)
		}
		p50f, ok50 := b.sc.Quantile("broker_fsync_seconds", nil, 0.50)
		p99f, ok99 := b.sc.Quantile("broker_fsync_seconds", nil, 0.99)
		fsync := "-"
		if ok50 || ok99 {
			fsync = fmtDur(p50f, ok50) + "/" + fmtDur(p99f, ok99)
		}
		fmt.Fprintf(w, "%s\t%s\t%s\t%s\t%s\t%s\n",
			b.node, epoch, state,
			opQuantiles(b.sc, "producep"), opQuantiles(b.sc, "fetch"), fsync)
	}
	w.Flush()
	fmt.Println()
}

func renderPartitions(brokers []*brokerScrape) {
	type partRow struct {
		topic, part string
		leader      string
		isr         float64
		logEnd      float64
		committed   float64
		perRecord   string   // log bytes per record, from the leader's scrape
		lag         []string // follower=records, from the leader's scrape
	}
	rows := make(map[string]*partRow)
	key := func(t, p string) string { return t + "/" + p }
	for _, b := range brokers {
		if b.err != nil {
			continue
		}
		for _, s := range b.sc.Select("broker_partition_leader", nil) {
			t, p := s.Labels["topic"], s.Labels["partition"]
			r, ok := rows[key(t, p)]
			if !ok {
				r = &partRow{topic: t, part: p}
				rows[key(t, p)] = r
			}
			if s.Value < 1 {
				continue
			}
			// This node leads the partition: its view of ISR, offsets and
			// follower lag is authoritative.
			r.leader = b.node
			r.isr, _ = b.sc.Value("broker_partition_isr_size", s.Labels)
			r.committed, _ = b.sc.Value("broker_partition_committed_offset", s.Labels)
			r.logEnd, _ = b.sc.Value("broker_partition_log_end_offset", s.Labels)
			if bytes, ok := b.sc.Value("broker_log_bytes", s.Labels); ok && r.logEnd > 0 {
				r.perRecord = fmt.Sprintf("%.1f", bytes/r.logEnd)
			}
			r.lag = r.lag[:0]
			for _, ls := range b.sc.Select("broker_replication_lag_records",
				metrics.Labels{"topic": t, "partition": p}) {
				r.lag = append(r.lag, fmt.Sprintf("%s=%.0f", ls.Labels["follower"], ls.Value))
			}
			sort.Strings(r.lag)
		}
	}
	if len(rows) == 0 {
		return
	}
	keys := make([]string, 0, len(rows))
	for k := range rows {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "PARTITION\tLEADER\tISR\tLOG-END\tB/REC\tCOMMITTED\tFOLLOWER LAG")
	for _, k := range keys {
		r := rows[k]
		leader := r.leader
		if leader == "" {
			leader = "NONE"
		}
		lag := strings.Join(r.lag, " ")
		if lag == "" {
			lag = "-"
		}
		fmt.Fprintf(w, "%s/%s\t%s\t%.0f\t%.0f\t%s\t%.0f\t%s\n",
			r.topic, r.part, leader, r.isr, r.logEnd, cmp.Or(r.perRecord, "-"), r.committed, lag)
	}
	w.Flush()
	fmt.Println()
}

// renderIngest shows the shared plane's per-partition batch shape: how
// many records each columnar fetch round carried (the vectorization's
// leverage — bigger batches amortize more per-record work) and how long
// the partition loop blocked per fetch+decode round — and the attached
// queries against the samplers they run, fewer when sampling groups
// share one.
func renderIngest(addr string, sc *metrics.Scrape) {
	parts := make(map[string]bool)
	for _, s := range sc.Select("saproxd_ingest_records_total", nil) {
		if s.Labels["partition"] != "" {
			parts[s.Labels["partition"]] = true
		}
	}
	if len(parts) == 0 {
		return
	}
	keys := make([]string, 0, len(parts))
	for p := range parts {
		keys = append(keys, p)
	}
	sort.Strings(keys)
	fmt.Printf("INGEST PLANE (%s)\n", addr)
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "PARTITION\tQUERIES/SAMPLERS\tRECORDS\tITEMS/S\tLAG\tBATCH avg/p99\tDECODE p50/p99")
	for _, p := range keys {
		m := metrics.Labels{"partition": p}
		records, _ := sc.Value("saproxd_ingest_records_total", m)
		queries, _ := sc.Value("saproxd_ingest_queries", m)
		samplers, _ := sc.Value("saproxd_ingest_samplers", m)
		rate := "-"
		if v, ok := sc.Value("saproxd_ingest_throughput_items_per_s", m); ok {
			rate = fmt.Sprintf("%.0f", v)
		}
		lag := "-"
		if v, ok := sc.Value("saproxd_ingest_lag_records", m); ok {
			lag = fmt.Sprintf("%.0f", v)
		}
		batch := "-"
		if sum, ok := sc.Value("saproxd_ingest_batch_records_sum", m); ok {
			if count, ok2 := sc.Value("saproxd_ingest_batch_records_count", m); ok2 && count > 0 {
				p99, ok99 := sc.Quantile("saproxd_ingest_batch_records", m, 0.99)
				batch = fmt.Sprintf("%.0f", sum/count)
				if ok99 {
					batch += fmt.Sprintf("/%.0f", p99)
				}
			}
		}
		decode := "-"
		p50d, ok50 := sc.Quantile("saproxd_ingest_decode_seconds", m, 0.50)
		p99d, ok99 := sc.Quantile("saproxd_ingest_decode_seconds", m, 0.99)
		if ok50 || ok99 {
			decode = fmtDur(p50d, ok50) + "/" + fmtDur(p99d, ok99)
		}
		fmt.Fprintf(w, "%s\t%.0f/%.0f\t%.0f\t%s\t%s\t%s\t%s\n", p, queries, samplers, records, rate, lag, batch, decode)
	}
	w.Flush()
	fmt.Println()
}

func renderQueries(addr string, sc *metrics.Scrape) {
	queries := make(map[string]bool)
	for _, s := range sc.Select("saproxd_query_observed_rel_error", nil) {
		queries[s.Labels["query"]] = true
	}
	for _, s := range sc.Select("saproxd_windows_merged_total", nil) {
		queries[s.Labels["query"]] = true
	}
	ids := make([]string, 0, len(queries))
	for id := range queries {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	fmt.Printf("QUERIES (%s)\n", addr)
	if len(ids) == 0 {
		fmt.Println("  none registered")
		return
	}
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "QUERY\tWINDOWS\tERR OBSERVED\tERR TARGET\tLAG\tMERGE p50/p99")
	for _, id := range ids {
		m := metrics.Labels{"query": id}
		windows, _ := sc.Value("saproxd_windows_merged_total", m)
		obs := "-"
		if v, ok := sc.Value("saproxd_query_observed_rel_error", m); ok {
			obs = fmt.Sprintf("%.2f%%", v*100)
		}
		target := "-"
		if v, ok := sc.Value("saproxd_query_target_rel_error", m); ok {
			target = fmt.Sprintf("%.2f%%", v*100)
		}
		lag := "-"
		if v, ok := sc.Value("saproxd_query_lag_records", m); ok {
			lag = fmt.Sprintf("%.0f", v)
		}
		p50, ok50 := sc.Quantile("saproxd_window_merge_seconds", m, 0.50)
		p99, ok99 := sc.Quantile("saproxd_window_merge_seconds", m, 0.99)
		merge := "-"
		if ok50 || ok99 {
			merge = fmtDur(p50, ok50) + "/" + fmtDur(p99, ok99)
		}
		fmt.Fprintf(w, "%s\t%.0f\t%s\t%s\t%s\t%s\n", id, windows, obs, target, lag, merge)
	}
	w.Flush()
}
