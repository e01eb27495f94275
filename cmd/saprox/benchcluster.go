package main

// saprox bench-cluster: the multi-broker benchmark runner. It stands up
// an in-process single-broker "cluster" and a 3-broker cluster with
// replication factor 2, pushes the same workload through the routing
// client against both, then kills a partition leader mid-run and times
// how long produce to that partition stays unavailable. Results land in
// a JSON file (BENCH_cluster.json at the repo root is the tracked
// baseline), so replication-cost and failover-time regressions are
// diffable across PRs.

import (
	"encoding/json"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"streamapprox/internal/broker"
	"streamapprox/internal/broker/storage"
)

type benchClusterMembers struct {
	brokers []*broker.Broker
	servers []*broker.Server
	nodes   []*broker.ClusterNode
	addrs   []string
	ids     []string
	dirs    []string
}

// startBenchCluster boots an in-process cluster; with durable set each
// member keeps its partition logs in a temp directory (fsync interval,
// the realistic durable serving configuration).
func startBenchCluster(members, replicas, minISR int, durable bool) (*benchClusterMembers, error) {
	bc := &benchClusterMembers{}
	peers := make(map[string]string, members)
	for i := 0; i < members; i++ {
		var cfg broker.StorageConfig
		if durable {
			dir, err := os.MkdirTemp("", "benchcluster")
			if err != nil {
				bc.stop()
				return nil, err
			}
			bc.dirs = append(bc.dirs, dir)
			cfg = broker.StorageConfig{Dir: dir, Policy: storage.SyncInterval}
		}
		b, err := broker.Open(cfg)
		if err != nil {
			bc.stop()
			return nil, err
		}
		srv, err := broker.ServeWithOptions(b, "127.0.0.1:0", broker.ServerOptions{})
		if err != nil {
			bc.stop()
			return nil, err
		}
		id := fmt.Sprintf("n%d", i)
		peers[id] = srv.Addr()
		bc.brokers = append(bc.brokers, b)
		bc.servers = append(bc.servers, srv)
		bc.ids = append(bc.ids, id)
		bc.addrs = append(bc.addrs, srv.Addr())
	}
	for i := 0; i < members; i++ {
		node, err := broker.NewClusterNode(bc.brokers[i], broker.NodeConfig{
			ID:             bc.ids[i],
			Peers:          peers,
			Replicas:       replicas,
			MinISR:         minISR,
			HeartbeatEvery: 20 * time.Millisecond,
			FailAfter:      3,
		})
		if err != nil {
			bc.stop()
			return nil, err
		}
		bc.servers[i].AttachNode(node)
		bc.nodes = append(bc.nodes, node)
	}
	for _, n := range bc.nodes {
		n.Start()
	}
	return bc, nil
}

func (bc *benchClusterMembers) kill(i int) {
	if bc.nodes[i] == nil {
		return
	}
	bc.nodes[i].Close()
	bc.servers[i].Close()
	bc.brokers[i].Close()
	bc.nodes[i] = nil
}

func (bc *benchClusterMembers) stop() {
	for i := range bc.servers {
		if i < len(bc.nodes) && bc.nodes[i] != nil {
			bc.nodes[i].Close()
			bc.nodes[i] = nil
		}
		bc.servers[i].Close()
		bc.brokers[i].Close()
	}
	for _, dir := range bc.dirs {
		_ = os.RemoveAll(dir)
	}
	bc.dirs = nil
}

func (bc *benchClusterMembers) indexOf(id string) int {
	for i, nid := range bc.ids {
		if nid == id {
			return i
		}
	}
	return -1
}

// benchClusterSide holds one cluster size's measurements.
type benchClusterSide struct {
	Members            int     `json:"members"`
	Replicas           int     `json:"replicas"`
	MinISR             int     `json:"min_isr"`
	ProduceItemsPerSec float64 `json:"produce_items_per_s"`
	FetchItemsPerSec   float64 `json:"fetch_items_per_s"`
	ProduceSeconds     float64 `json:"produce_seconds"`
	FetchSeconds       float64 `json:"fetch_seconds"`
}

type benchClusterResult struct {
	Bench     string           `json:"bench"`
	Go        string           `json:"go"`
	CPUs      int              `json:"cpus"`
	UnixNanos int64            `json:"unix_nanos"`
	Records   int              `json:"records"`
	Batch     int              `json:"batch"`
	Parts     int              `json:"partitions"`
	Reps      int              `json:"reps"`
	Durable   bool             `json:"durable"`
	Single    benchClusterSide `json:"single_broker"`
	Cluster3  benchClusterSide `json:"three_brokers_rf2"`
	// ReplicationCost is single-broker produce rate over 3-broker rate:
	// the price of synchronous RF2 replication on the produce path.
	ReplicationCost float64 `json:"replication_cost_produce"`
	// FailoverRecoverySeconds is how long produce to a partition stayed
	// unavailable after its leader was killed (detection + promotion +
	// client redirect).
	FailoverRecoverySeconds float64 `json:"failover_recovery_seconds"`
}

// benchRecs builds one batch of keyless records.
func benchRecs(v0, n int) []broker.Record {
	out := make([]broker.Record, n)
	base := time.Unix(0, 0).UTC()
	for i := range out {
		out[i] = broker.Record{Value: float64(v0 + i), Time: base.Add(time.Duration(v0+i) * time.Millisecond)}
	}
	return out
}

// benchSide is one live cluster under measurement: the members, a
// routing client, and the side's result being filled in.
type benchSide struct {
	bc   *benchClusterMembers
	cc   *broker.ClusterClient
	side benchClusterSide
}

func (s *benchSide) stop() {
	if s.cc != nil {
		_ = s.cc.Close()
	}
	if s.bc != nil {
		s.bc.stop()
	}
}

// startBenchSide boots one cluster, dials it, and warms up both paths
// on a throwaway topic: first-touch costs (peer replication
// connections, per-partition leader state, allocator and scheduler
// steady state) are one-time, and on short runs they would otherwise
// dominate a measurement window of a few tens of milliseconds.
func startBenchSide(members, replicas, minISR, batch, parts int, durable bool) (*benchSide, error) {
	s := &benchSide{side: benchClusterSide{Members: members, Replicas: replicas, MinISR: minISR}}
	var err error
	if s.bc, err = startBenchCluster(members, replicas, minISR, durable); err != nil {
		return nil, err
	}
	if s.cc, err = broker.DialCluster(s.bc.addrs); err != nil {
		s.stop()
		return nil, err
	}
	if err := s.cc.CreateTopic("benchwarm", parts); err != nil {
		s.stop()
		return nil, err
	}
	for off := 0; off < 4*batch; off += batch {
		if _, err := s.cc.Produce("benchwarm", benchRecs(off, batch)); err != nil {
			s.stop()
			return nil, fmt.Errorf("warmup produce: %w", err)
		}
	}
	for p := 0; p < parts; p++ {
		if _, err := s.cc.Fetch("benchwarm", p, 0, 4096); err != nil {
			s.stop()
			return nil, fmt.Errorf("warmup fetch: %w", err)
		}
	}
	return s, nil
}

// timedProduce pushes `records` in `batch`-sized requests to a fresh
// topic and returns the elapsed seconds.
func (s *benchSide) timedProduce(topic string, records, batch, parts int) (float64, error) {
	if err := s.cc.CreateTopic(topic, parts); err != nil {
		return 0, err
	}
	start := time.Now()
	for off := 0; off < records; off += batch {
		n := batch
		if off+n > records {
			n = records - off
		}
		if _, err := s.cc.Produce(topic, benchRecs(off, n)); err != nil {
			return 0, fmt.Errorf("produce: %w", err)
		}
	}
	return time.Since(start).Seconds(), nil
}

// timedFetch reads every record of the topic back through the routing
// client and returns the elapsed seconds, verifying the count.
func (s *benchSide) timedFetch(topic string, records, parts int) (float64, error) {
	start := time.Now()
	fetched := 0
	for p := 0; p < parts; p++ {
		hwm, err := s.cc.HighWatermark(topic, p)
		if err != nil {
			return 0, err
		}
		for off := int64(0); off < hwm; {
			recs, err := s.cc.Fetch(topic, p, off, 4096)
			if err != nil {
				return 0, err
			}
			if len(recs) == 0 {
				return 0, fmt.Errorf("empty fetch below hwm at %d/%d", p, off)
			}
			fetched += len(recs)
			off += int64(len(recs))
		}
	}
	if fetched != records {
		return 0, fmt.Errorf("fetched %d of %d records", fetched, records)
	}
	return time.Since(start).Seconds(), nil
}

// measureClusterSides measures the single-broker and 3-broker sides as
// a PAIRED experiment: both clusters are alive at once, and each
// repetition times one produce pass on each side back to back before
// the next repetition, keeping the fastest pass per side. CPU-supply
// drift on a shared host (steal windows, noisy neighbors) then lands
// on both sides of the replication-cost ratio instead of on whichever
// side happened to run during the bad seconds.
func measureClusterSides(records, batch, parts, reps int, durable bool) (single, rf2 benchClusterSide, err error) {
	a, err := startBenchSide(1, 1, 1, batch, parts, durable)
	if err != nil {
		return single, rf2, err
	}
	defer a.stop()
	b, err := startBenchSide(3, 2, 2, batch, parts, durable)
	if err != nil {
		return single, rf2, err
	}
	defer b.stop()

	sides := [2]*benchSide{a, b}
	for rep := 0; rep < reps; rep++ {
		topic := fmt.Sprintf("bench%d", rep)
		for _, s := range sides {
			sec, err := s.timedProduce(topic, records, batch, parts)
			if err != nil {
				return single, rf2, err
			}
			if s.side.ProduceSeconds == 0 || sec < s.side.ProduceSeconds {
				s.side.ProduceSeconds = sec
			}
		}
	}
	for rep := 0; rep < reps; rep++ {
		for _, s := range sides {
			sec, err := s.timedFetch("bench0", records, parts)
			if err != nil {
				return single, rf2, err
			}
			if s.side.FetchSeconds == 0 || sec < s.side.FetchSeconds {
				s.side.FetchSeconds = sec
			}
		}
	}
	for _, s := range sides {
		s.side.ProduceItemsPerSec = float64(records) / s.side.ProduceSeconds
		s.side.FetchItemsPerSec = float64(records) / s.side.FetchSeconds
	}
	return a.side, b.side, nil
}

// measureFailoverRecovery kills the leader of partition 0 on a fresh
// 3-broker cluster and times until a produce to that partition succeeds
// again.
func measureFailoverRecovery(batch, parts int, durable bool) (float64, error) {
	bc, err := startBenchCluster(3, 2, 2, durable)
	if err != nil {
		return 0, err
	}
	defer bc.stop()
	cc, err := broker.DialClusterWithOptions(bc.addrs, broker.ClusterClientOptions{
		Retries: 40, Backoff: 5 * time.Millisecond,
	})
	if err != nil {
		return 0, err
	}
	defer func() { _ = cc.Close() }()
	if err := cc.CreateTopic("bench", parts); err != nil {
		return 0, err
	}
	if _, err := cc.Produce("bench", benchRecs(0, batch)); err != nil {
		return 0, err
	}
	m, err := cc.Meta()
	if err != nil {
		return 0, err
	}
	leader := m.LeaderOf("bench", 0)
	if leader == "" {
		return 0, fmt.Errorf("no leader for partition 0")
	}
	bc.kill(bc.indexOf(leader))
	start := time.Now()
	// The routing client retries internally until a follower is
	// promoted; the elapsed time IS the unavailability window.
	if _, err := cc.Produce("bench", benchRecs(batch, batch)); err != nil {
		return 0, fmt.Errorf("produce never recovered: %w", err)
	}
	return time.Since(start).Seconds(), nil
}

func runBenchCluster(args []string) error {
	fs := flag.NewFlagSet("bench-cluster", flag.ContinueOnError)
	records := fs.Int("records", 100000, "records per measurement")
	batch := fs.Int("batch", 1000, "records per produce request")
	parts := fs.Int("partitions", 4, "topic partitions")
	reps := fs.Int("reps", 3, "measurement repetitions per side (fastest pass wins)")
	durable := fs.Bool("durable", false, "use durable on-disk partition logs (temp dirs, fsync interval)")
	out := fs.String("out", "BENCH_cluster.json", `result file ("-" for stdout only)`)
	baseline := fs.String("baseline", "", "compare produce throughput and replication-cost ratio against this recorded result file and fail on regression")
	maxRegress := fs.Float64("max-regress", 0.10, "allowed fractional regression vs -baseline before failing")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile of the measurements to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if *records < *batch || *batch < 1 || *parts < 1 || *reps < 1 {
		return fmt.Errorf("bench-cluster: need records >= batch >= 1, partitions >= 1, reps >= 1")
	}

	res := benchClusterResult{
		Bench:     "cluster",
		Go:        runtime.Version(),
		CPUs:      runtime.NumCPU(),
		UnixNanos: time.Now().UnixNano(),
		Records:   *records,
		Batch:     *batch,
		Parts:     *parts,
		Reps:      *reps,
		Durable:   *durable,
	}

	mode := "in-memory"
	if *durable {
		mode = "durable"
	}
	// Structured progress on stderr, grep-able by run ID across the
	// whole benchmark (stdout stays clean JSON).
	blog := slog.New(slog.NewTextHandler(os.Stderr, nil)).With("bench", "cluster")
	blog.Info("paired sides", "mode", mode, "records", *records, "reps", *reps)
	var err error
	if res.Single, res.Cluster3, err = measureClusterSides(*records, *batch, *parts, *reps, *durable); err != nil {
		return err
	}
	if res.Cluster3.ProduceItemsPerSec > 0 {
		res.ReplicationCost = res.Single.ProduceItemsPerSec / res.Cluster3.ProduceItemsPerSec
	}
	blog.Info("failover recovery")
	if res.FailoverRecoverySeconds, err = measureFailoverRecovery(*batch, *parts, *durable); err != nil {
		return err
	}

	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(data))
	if *out != "-" {
		if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
			return err
		}
		blog.Info("wrote result", "file", *out)
	}
	if *baseline != "" {
		return checkClusterRegression(*baseline, *maxRegress, res)
	}
	return nil
}

// checkClusterRegression compares the paired measurement against a
// recorded baseline file and errors when single-broker or RF2 produce
// throughput fell more than maxRegress below it, or when the
// replication-cost ratio grew more than maxRegress above it — the CI
// gate that keeps replication-path regressions from landing silently.
// Gains never fail; rerecord the baseline to ratchet them in.
func checkClusterRegression(path string, maxRegress float64, res benchClusterResult) error {
	blob, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("bench-cluster baseline: %w", err)
	}
	var base benchClusterResult
	if err := json.Unmarshal(blob, &base); err != nil {
		return fmt.Errorf("bench-cluster baseline %s: %w", path, err)
	}
	checkRate := func(what string, got, want float64) error {
		if want <= 0 {
			return nil
		}
		drop := 1 - got/want
		fmt.Printf("  vs %s: %s %12.0f items/s (baseline %12.0f, %+.1f%%)\n",
			path, what, got, want, -drop*100)
		if drop > maxRegress {
			return fmt.Errorf("bench-cluster: %s regressed %.1f%% vs %s (limit %.0f%%)",
				what, drop*100, path, maxRegress*100)
		}
		return nil
	}
	if err := checkRate("single produce", res.Single.ProduceItemsPerSec, base.Single.ProduceItemsPerSec); err != nil {
		return err
	}
	if err := checkRate("rf2 produce", res.Cluster3.ProduceItemsPerSec, base.Cluster3.ProduceItemsPerSec); err != nil {
		return err
	}
	// The ratio regresses UPWARD: replication getting relatively more
	// expensive than the recorded baseline fails even when raw
	// throughput is fine (e.g. on a beefier CI host).
	if base.ReplicationCost > 0 {
		grow := res.ReplicationCost/base.ReplicationCost - 1
		fmt.Printf("  vs %s: replication cost %.4fx (baseline %.4fx, %+.1f%%)\n",
			path, res.ReplicationCost, base.ReplicationCost, grow*100)
		if grow > maxRegress {
			return fmt.Errorf("bench-cluster: replication-cost ratio regressed %.1f%% vs %s (limit %.0f%%)",
				grow*100, path, maxRegress*100)
		}
	}
	return nil
}
