package main

// saprox bench-e2e: the chaos benchmark runner. It stands up an
// in-process 3-broker cluster with EVERY byte — client→broker and
// broker→broker — routed through a faults.Proxy, runs a replay
// workload through a live approximate query, and injects one fault per
// scenario mid-stream: leader kill, leader blackhole (asymmetric
// partition, connections held open), follower stall, slow disk.
// Each scenario records produce throughput, p99 produce latency, the
// fault's recovery time, and the query's observed error against its
// reported bound, into a JSON file (BENCH_e2e.json at the repo root is
// the tracked baseline) — so robustness regressions (slower failover,
// wedged produces, broken error bounds under faults) are diffable
// across PRs exactly like performance ones.

import (
	"encoding/json"
	"flag"
	"fmt"
	"log/slog"
	"math"
	"net/http/httptest"
	"os"
	"runtime"
	"sort"
	"time"

	"streamapprox/internal/broker"
	"streamapprox/internal/broker/storage"
	"streamapprox/internal/faults"
	"streamapprox/internal/server"
	"streamapprox/internal/xrand"
)

// e2e cluster tuning: short deadlines everywhere — recovery time is
// governed by these, not by TCP keepalive.
const (
	e2eHeartbeat    = 20 * time.Millisecond
	e2eProbeTimeout = 250 * time.Millisecond
	e2eRPCTimeout   = 500 * time.Millisecond
)

// e2eCluster is a proxy-fronted in-process cluster: the peers map and
// every client seed carry the PROXY addresses, so blackholing proxy i
// is an asymmetric partition of member i.
type e2eCluster struct {
	brokers []*broker.Broker
	servers []*broker.Server
	nodes   []*broker.ClusterNode
	proxies []*faults.Proxy
	disks   []*faults.Disk
	ids     []string
	addrs   []string // proxy addresses
	dirs    []string
}

func startE2ECluster(members int, durable bool) (*e2eCluster, error) {
	ec := &e2eCluster{}
	peers := make(map[string]string, members)
	for i := 0; i < members; i++ {
		var cfg broker.StorageConfig
		var disk *faults.Disk
		if durable {
			dir, err := os.MkdirTemp("", "benche2e")
			if err != nil {
				ec.stop()
				return nil, err
			}
			ec.dirs = append(ec.dirs, dir)
			disk = faults.NewDisk(nil)
			cfg = broker.StorageConfig{Dir: dir, Policy: storage.SyncAlways, FS: disk}
		}
		b, err := broker.Open(cfg)
		if err != nil {
			ec.stop()
			return nil, err
		}
		srv, err := broker.ServeWithOptions(b, "127.0.0.1:0", broker.ServerOptions{})
		if err != nil {
			ec.stop()
			return nil, err
		}
		p, err := faults.NewProxy("127.0.0.1:0", srv.Addr())
		if err != nil {
			srv.Close()
			ec.stop()
			return nil, err
		}
		id := fmt.Sprintf("n%d", i)
		peers[id] = p.Addr()
		ec.brokers = append(ec.brokers, b)
		ec.servers = append(ec.servers, srv)
		ec.proxies = append(ec.proxies, p)
		ec.disks = append(ec.disks, disk)
		ec.ids = append(ec.ids, id)
		ec.addrs = append(ec.addrs, p.Addr())
	}
	for i := 0; i < members; i++ {
		node, err := broker.NewClusterNode(ec.brokers[i], broker.NodeConfig{
			ID:             ec.ids[i],
			Peers:          peers,
			Replicas:       2,
			MinISR:         2,
			HeartbeatEvery: e2eHeartbeat,
			FailAfter:      3,
			ProbeTimeout:   e2eProbeTimeout,
			RPCTimeout:     e2eRPCTimeout,
			DialTimeout:    e2eRPCTimeout,
		})
		if err != nil {
			ec.stop()
			return nil, err
		}
		ec.servers[i].AttachNode(node)
		ec.nodes = append(ec.nodes, node)
	}
	for _, n := range ec.nodes {
		n.Start()
	}
	return ec, nil
}

// kill crash-stops member i (its proxy stays up, so clients see dead
// connections, not vanished addresses).
func (ec *e2eCluster) kill(i int) {
	if ec.nodes[i] == nil {
		return
	}
	ec.nodes[i].Close()
	ec.servers[i].Close()
	ec.brokers[i].Close()
	ec.nodes[i] = nil
}

func (ec *e2eCluster) stop() {
	for i := range ec.servers {
		if i < len(ec.nodes) && ec.nodes[i] != nil {
			ec.nodes[i].Close()
			ec.nodes[i] = nil
		}
		ec.servers[i].Close()
		ec.brokers[i].Close()
	}
	for _, p := range ec.proxies {
		_ = p.Close()
	}
	for _, dir := range ec.dirs {
		_ = os.RemoveAll(dir)
	}
	ec.dirs = nil
}

func (ec *e2eCluster) indexOf(id string) int {
	for i, nid := range ec.ids {
		if nid == id {
			return i
		}
	}
	return -1
}

func (ec *e2eCluster) clientOptions() broker.ClusterClientOptions {
	return broker.ClusterClientOptions{
		Retries:        30,
		Backoff:        5 * time.Millisecond,
		DialTimeout:    e2eRPCTimeout,
		RequestTimeout: e2eRPCTimeout,
	}
}

// benchE2EScenario is one fault scenario's measurements.
type benchE2EScenario struct {
	Scenario string `json:"scenario"`
	// Produce-side numbers, fault window included.
	ItemsPerSec  float64 `json:"items_per_s"`
	ProduceP99Ms float64 `json:"produce_p99_ms"`
	ProduceMaxMs float64 `json:"produce_max_ms"`
	// RecoverySeconds is fault injection → the next produce that touches
	// the faulted partition completing (0 where no outage is expected).
	RecoverySeconds float64 `json:"recovery_seconds"`
	// Query-side accuracy: the live query's merged windows against exact
	// ground truth recomputed from the produced events.
	Windows            int     `json:"windows"`
	MeanRelErr         float64 `json:"mean_rel_err"`
	MaxRelErr          float64 `json:"max_rel_err"`
	ErrorBoundCoverage float64 `json:"error_bound_coverage"` // |est-exact| <= reported bound
}

type benchE2EResult struct {
	Bench      string             `json:"bench"`
	Go         string             `json:"go"`
	CPUs       int                `json:"cpus"`
	UnixNanos  int64              `json:"unix_nanos"`
	Events     int                `json:"events"`
	Batch      int                `json:"batch"`
	Parts      int                `json:"partitions"`
	Reps       int                `json:"reps"` // best-throughput rep recorded per scenario
	Fraction   float64            `json:"fraction"`
	Confidence int                `json:"confidence"`
	Scenarios  []benchE2EScenario `json:"scenarios"`
}

func runBenchE2E(args []string) error {
	fs := flag.NewFlagSet("bench-e2e", flag.ContinueOnError)
	events := fs.Int("events", 40000, "events per scenario")
	batch := fs.Int("batch", 500, "events per produce request")
	parts := fs.Int("partitions", 4, "topic partitions")
	out := fs.String("out", "BENCH_e2e.json", `result file ("-" for stdout only)`)
	only := fs.String("scenario", "", "run a single scenario (empty: all)")
	reps := fs.Int("reps", 3, "repetitions per scenario; the best-throughput rep is recorded")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *events < *batch || *batch < 1 || *parts < 1 || *reps < 1 {
		return fmt.Errorf("bench-e2e: need events >= batch >= 1, partitions >= 1 and reps >= 1")
	}

	res := benchE2EResult{
		Bench:      "e2e-chaos",
		Go:         runtime.Version(),
		CPUs:       runtime.NumCPU(),
		UnixNanos:  time.Now().UnixNano(),
		Events:     *events,
		Batch:      *batch,
		Parts:      *parts,
		Reps:       *reps,
		Fraction:   0.5,
		Confidence: 95,
	}
	scenarios := []string{"baseline", "leader-kill", "leader-blackhole", "follower-stall", "slow-disk"}
	blog := slog.New(slog.NewTextHandler(os.Stderr, nil)).With("bench", "e2e")
	for _, sc := range scenarios {
		if *only != "" && sc != *only {
			continue
		}
		blog.Info("scenario", "name", sc, "events", *events, "reps", *reps)
		// Best-of-reps: each rep runs on a fresh cluster, and the rep with
		// the highest produce throughput is recorded whole (paired metrics
		// come from the same run, never mixed across reps). This measures
		// the system's capability rather than the noisiest co-tenant.
		var s benchE2EScenario
		for r := 0; r < *reps; r++ {
			rep, err := runE2EScenario(sc, *events, *batch, *parts)
			if err != nil {
				return fmt.Errorf("bench-e2e %s (rep %d): %w", sc, r+1, err)
			}
			blog.Info("rep done", "name", sc, "rep", r+1,
				"items_per_s", fmt.Sprintf("%.0f", rep.ItemsPerSec))
			if r == 0 || rep.ItemsPerSec > s.ItemsPerSec {
				s = rep
			}
		}
		blog.Info("scenario done", "name", sc,
			"items_per_s", fmt.Sprintf("%.0f", s.ItemsPerSec),
			"p99_ms", fmt.Sprintf("%.1f", s.ProduceP99Ms),
			"recovery_s", fmt.Sprintf("%.2f", s.RecoverySeconds),
			"mean_rel_err", fmt.Sprintf("%.4f", s.MeanRelErr),
			"bound_coverage", fmt.Sprintf("%.2f", s.ErrorBoundCoverage))
		res.Scenarios = append(res.Scenarios, s)
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
	return nil
}

// runE2EScenario runs one fault scenario end to end: replay workload →
// proxied cluster → live query, fault injected halfway through.
func runE2EScenario(scenario string, events, batch, parts int) (benchE2EScenario, error) {
	out := benchE2EScenario{Scenario: scenario}
	ec, err := startE2ECluster(3, scenario == "slow-disk")
	if err != nil {
		return out, err
	}
	defer ec.stop()
	cc, err := broker.DialClusterWithOptions(ec.addrs, ec.clientOptions())
	if err != nil {
		return out, err
	}
	defer func() { _ = cc.Close() }()
	if err := cc.CreateTopic("e2e", parts); err != nil {
		return out, err
	}

	srv, err := server.New(server.Config{
		Cluster: cc,
		DialShard: func() (broker.Cluster, error) {
			return broker.DialClusterWithOptions(ec.addrs, ec.clientOptions())
		},
		Topic:       "e2e",
		PollBackoff: time.Millisecond,
	})
	if err != nil {
		return out, err
	}
	defer srv.Close()
	const window, slide = 2 * time.Second, time.Second
	id, err := srv.Register(server.Spec{
		Kind: "sum", Window: window, Slide: slide, Fraction: 0.5, Confidence: 95, Seed: 11,
	})
	if err != nil {
		return out, err
	}

	recs := e2eRecords(events)

	// Produce in batches, injecting the scenario's fault halfway; the
	// first produce AFTER the fault times the recovery (the routing
	// client retries through it, so its completion IS the recovery).
	latencies := make([]float64, 0, events/batch+1)
	faultBatch := (events / batch) / 2
	var faultAt time.Time
	start := time.Now()
	for off, bi := 0, 0; off < events; off, bi = off+batch, bi+1 {
		if bi == faultBatch {
			if faultAt, err = injectE2EFault(ec, cc, scenario); err != nil {
				return out, err
			}
		}
		n := batch
		if off+n > events {
			n = events - off
		}
		t0 := time.Now()
		if _, err := cc.Produce("e2e", recs[off:off+n]); err != nil {
			return out, fmt.Errorf("produce batch %d: %w", bi, err)
		}
		lat := time.Since(t0)
		latencies = append(latencies, float64(lat.Milliseconds()))
		if !faultAt.IsZero() && out.RecoverySeconds == 0 && bi >= faultBatch {
			out.RecoverySeconds = time.Since(faultAt).Seconds()
		}
	}
	elapsed := time.Since(start).Seconds()
	out.ItemsPerSec = float64(events) / elapsed
	sort.Float64s(latencies)
	out.ProduceP99Ms = latencies[(len(latencies)*99)/100-1]
	out.ProduceMaxMs = latencies[len(latencies)-1]
	if scenario == "baseline" || scenario == "slow-disk" {
		out.RecoverySeconds = 0 // no outage: latency tells the story
	}

	// Wait until the query has consumed every produced record (exactly
	// once — Stats counts deliveries, so an overshoot would show up as
	// records > events and fail the equality below).
	deadline := time.Now().Add(60 * time.Second)
	for {
		records, windows, ok := srv.Stats(id)
		if !ok {
			return out, fmt.Errorf("query vanished")
		}
		if records == int64(events) && windows >= 5 {
			break
		}
		if records > int64(events) {
			return out, fmt.Errorf("query consumed %d of %d produced records (duplication)", records, events)
		}
		if time.Now().After(deadline) {
			return out, fmt.Errorf("query consumed %d of %d records before deadline", records, events)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Pull the merged windows over the public API and score them against
	// exact ground truth recomputed from the replayed events.
	results, err := fetchResults(srv, id)
	if err != nil {
		return out, err
	}
	out.Windows = len(results)
	covered := 0
	for _, w := range results {
		var exact float64
		for _, e := range recs {
			if !e.Time.Before(w.Start) && e.Time.Before(w.Start.Add(window)) {
				exact += e.Value
			}
		}
		rel := math.Abs(w.Value-exact) / math.Max(math.Abs(exact), 1)
		out.MeanRelErr += rel
		if rel > out.MaxRelErr {
			out.MaxRelErr = rel
		}
		if math.Abs(w.Value-exact) <= w.Error {
			covered++
		}
	}
	if len(results) > 0 {
		out.MeanRelErr /= float64(len(results))
		out.ErrorBoundCoverage = float64(covered) / float64(len(results))
	}
	return out, nil
}

// injectE2EFault applies one scenario's fault and returns the injection
// time (zero when the scenario has no fault).
func injectE2EFault(ec *e2eCluster, cc *broker.ClusterClient, scenario string) (time.Time, error) {
	if scenario == "baseline" {
		return time.Time{}, nil
	}
	m, err := cc.Meta()
	if err != nil {
		return time.Time{}, err
	}
	leader := m.LeaderOf("e2e", 0)
	if leader == "" {
		return time.Time{}, fmt.Errorf("no leader for partition 0")
	}
	li := ec.indexOf(leader)
	switch scenario {
	case "leader-kill":
		ec.kill(li)
	case "leader-blackhole":
		ec.proxies[li].Set(faults.Both, faults.Faults{Blackhole: true})
	case "follower-stall":
		var follower string
		for _, r := range m.ReplicasOf("e2e", 0) {
			if r != leader {
				follower = r
				break
			}
		}
		if follower == "" {
			return time.Time{}, fmt.Errorf("no follower for partition 0")
		}
		ec.proxies[ec.indexOf(follower)].Set(faults.Both, faults.Faults{Blackhole: true})
	case "slow-disk":
		if ec.disks[li] == nil {
			return time.Time{}, fmt.Errorf("slow-disk scenario needs a durable cluster")
		}
		ec.disks[li].Set(faults.DiskFaults{SlowSync: 10 * time.Millisecond})
	default:
		return time.Time{}, fmt.Errorf("unknown scenario %q", scenario)
	}
	return time.Now(), nil
}

// fetchResults reads a query's merged windows through the HTTP API (the
// same surface saproxd serves), keeping the benchmark on public
// interfaces.
func fetchResults(srv *server.Server, id string) ([]server.MergedWindow, error) {
	req := httptest.NewRequest("GET", "/v1/queries/"+id+"/results", nil)
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, req)
	if rec.Code != 200 {
		return nil, fmt.Errorf("results: HTTP %d: %s", rec.Code, rec.Body.String())
	}
	var out []server.MergedWindow
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		return nil, fmt.Errorf("results: %w", err)
	}
	return out, nil
}

// e2eRecords builds the deterministic chaos workload: ms-spaced gaussian
// values over 16 strata, the shape the server tests use.
func e2eRecords(n int) []broker.Record {
	rng := xrand.New(7)
	base := time.Date(2017, 12, 11, 0, 0, 0, 0, time.UTC)
	out := make([]broker.Record, n)
	for i := range out {
		out[i] = broker.Record{
			Key:   fmt.Sprintf("s%02d", i%16),
			Value: rng.Gaussian(100, 15),
			Time:  base.Add(time.Duration(i) * time.Millisecond),
		}
	}
	return out
}
