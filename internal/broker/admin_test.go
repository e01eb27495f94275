package broker

import (
	"bytes"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"streamapprox/internal/metrics"
)

// syncBuf is a race-safe log sink for assertions.
type syncBuf struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuf) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuf) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// scrapeAdmin GETs and parses one admin handler's /metrics.
func scrapeAdmin(t *testing.T, url string) *metrics.Scrape {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: %s", resp.Status)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
	sc, err := metrics.ParseText(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

// TestAdminEndToEndSmoke is the observability acceptance path: a
// 3-broker RF-2 cluster with instrumented servers and admin handlers,
// worked through the routing client, then every member's /metrics is
// scraped and the new families asserted present and coherent, and
// /healthz flips ready once the ISR is full.
func TestAdminEndToEndSmoke(t *testing.T) {
	const n = 3
	var (
		brokers []*Broker
		servers []*Server
		nodes   []*ClusterNode
		admins  []*httptest.Server
	)
	peers := make(map[string]string, n)
	for i := 0; i < n; i++ {
		b := New()
		srv, err := ServeWithOptions(b, "127.0.0.1:0", ServerOptions{
			Metrics: b.Metrics(),
			Log:     slog.New(slog.NewTextHandler(io.Discard, nil)),
		})
		if err != nil {
			t.Fatal(err)
		}
		peers[fmt.Sprintf("n%d", i)] = srv.Addr()
		brokers = append(brokers, b)
		servers = append(servers, srv)
	}
	defer func() {
		for _, s := range servers {
			s.Close()
		}
	}()
	for i := 0; i < n; i++ {
		node, err := NewClusterNode(brokers[i], NodeConfig{
			ID:             fmt.Sprintf("n%d", i),
			Peers:          peers,
			Replicas:       2,
			MinISR:         2,
			HeartbeatEvery: 10 * time.Millisecond,
			FailAfter:      2,
		})
		if err != nil {
			t.Fatal(err)
		}
		servers[i].AttachNode(node)
		node.RegisterMetrics(brokers[i].Metrics())
		brokers[i].Metrics().Gauge("broker_info", "identity",
			metrics.Labels{"node": fmt.Sprintf("n%d", i)}).Set(1)
		nodes = append(nodes, node)
		admins = append(admins, httptest.NewServer(AdminHandler(brokers[i], node)))
	}
	defer func() {
		for _, a := range admins {
			a.Close()
		}
		for _, nd := range nodes {
			nd.Close()
		}
	}()
	for _, nd := range nodes {
		nd.Start()
	}

	addrs := make([]string, 0, n)
	for _, s := range servers {
		addrs = append(addrs, s.Addr())
	}
	cc, err := DialCluster(addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = cc.Close() }()
	if err := cc.CreateTopic("smoke", 2); err != nil {
		t.Fatal(err)
	}
	if _, err := cc.Produce("smoke", keylessRecs(0, 200)); err != nil {
		t.Fatal(err)
	}
	for p := 0; p < 2; p++ {
		if _, err := cc.Fetch("smoke", p, 0, 1000); err != nil {
			t.Fatal(err)
		}
	}

	// /healthz: every member becomes ready once replication is settled.
	for i, a := range admins {
		deadline := time.Now().Add(5 * time.Second)
		for {
			resp, err := http.Get(a.URL + "/healthz")
			if err != nil {
				t.Fatal(err)
			}
			_ = resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("node %d never became ready", i)
			}
			time.Sleep(20 * time.Millisecond)
		}
	}

	// Scrape every member and pool the cluster-wide view.
	var leaders, lagSeries, logEnd int
	sawReq, sawHist := false, false
	for i, a := range admins {
		sc := scrapeAdmin(t, a.URL)
		for _, fam := range []string{
			"broker_info", "broker_cluster_epoch", "broker_joining",
			"broker_peer_alive", "broker_partition_leader",
			"broker_partition_isr_size", "broker_partition_committed_offset",
			"broker_partition_log_end_offset", "broker_log_bytes",
		} {
			if len(sc.Select(fam, nil)) == 0 {
				t.Errorf("node %d: family %s missing", i, fam)
			}
		}
		// A ready member sees every peer alive.
		for id := range peers {
			if alive, ok := sc.Value("broker_peer_alive", metrics.Labels{"peer": id}); !ok || alive != 1 {
				t.Errorf("node %d: broker_peer_alive{peer=%q} = %v (present %v), want 1", i, id, alive, ok)
			}
		}
		// The in-memory logs report their frames' bytes: 100 records a
		// partition, 1 ms apart, in frames of 4-byte time offsets.
		for _, s := range sc.Select("broker_partition_log_end_offset", metrics.Labels{"topic": "smoke"}) {
			bytes, _ := sc.Value("broker_log_bytes", s.Labels)
			if s.Value > 0 && (bytes <= 0 || bytes/s.Value >= 1+8+8) {
				t.Errorf("node %d %v: %.0f log bytes for %.0f records", i, s.Labels, bytes, s.Value)
			}
		}
		if sc.Types["broker_request_seconds"] != "histogram" {
			t.Errorf("node %d: broker_request_seconds type = %q", i, sc.Types["broker_request_seconds"])
		}
		for _, s := range sc.Select("broker_request_seconds_count", nil) {
			if s.Value > 0 {
				sawReq = true
			}
		}
		if len(sc.Select("broker_request_seconds_bucket", nil)) > 0 {
			sawHist = true
		}
		for _, s := range sc.Select("broker_partition_leader", metrics.Labels{"topic": "smoke"}) {
			if s.Value >= 1 {
				leaders++
			}
		}
		lagSeries += len(sc.Select("broker_replication_lag_records", metrics.Labels{"topic": "smoke"}))
		for _, s := range sc.Select("broker_partition_log_end_offset", metrics.Labels{"topic": "smoke"}) {
			logEnd += int(s.Value)
		}
	}
	if !sawReq || !sawHist {
		t.Errorf("wire instrumentation missing: requests=%v histogram=%v", sawReq, sawHist)
	}
	if leaders != 2 {
		t.Errorf("smoke partitions report %d leaders across the cluster, want 2", leaders)
	}
	if lagSeries < 2 {
		t.Errorf("only %d replication-lag series across leaders, want one per (partition, follower) >= 2", lagSeries)
	}
	// 200 records over 2 partitions: leader + follower copies both count.
	if logEnd < 200 {
		t.Errorf("summed log-end offsets = %d, want >= 200", logEnd)
	}

	// pprof is wired on the same listener.
	resp, err := http.Get(admins[0].URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("pprof cmdline: %s", resp.Status)
	}
}

// TestTraceIDReachesBrokerLogs proves the wire-level trace propagation:
// a trace ID stamped on a client connection shows up in the broker
// server's structured debug log for the requests it issued, and an
// untraced connection logs no request at all.
func TestTraceIDReachesBrokerLogs(t *testing.T) {
	b := New()
	if err := b.CreateTopic("t", 1); err != nil {
		t.Fatal(err)
	}
	buf := &syncBuf{}
	srv := serveMember(t, b, ServerOptions{
		Metrics: b.Metrics(),
		Log:     slog.New(slog.NewTextHandler(buf, &slog.HandlerOptions{Level: slog.LevelDebug})),
	})
	cli, err := dial(srv.Addr(), DefaultDialTimeout, defaultRequestTimeout)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = cli.Close() }()

	const tid = 0xabcdef0123456789
	cli.SetTraceID(tid)
	if _, err := producePart(cli, "t", 0, 0, 0, keylessRecs(0, 10)); err != nil {
		t.Fatal(err)
	}
	if _, err := cli.Fetch("t", 0, 0, 100); err != nil {
		t.Fatal(err)
	}

	logs := buf.String()
	for _, op := range []string{"producep", "fetch"} {
		line := regexp.MustCompile(`(?m)^time=\S+ level=DEBUG msg="wire request" op=` + op + ` trace=([0-9a-f]{16}) `)
		if m := line.FindStringSubmatch(logs); m == nil || m[1] != "abcdef0123456789" {
			t.Errorf("no debug line for op=%s with trace=abcdef0123456789:\n%s", op, logs)
		}
	}

	// An untraced connection logs nothing.
	cli.SetTraceID(0)
	if _, err := producePart(cli, "t", 0, 0, 0, keylessRecs(10, 5)); err != nil {
		t.Fatal(err)
	}
	if _, err := cli.Fetch("t", 0, 0, 100); err != nil {
		t.Fatal(err)
	}
	if after := buf.String(); after != logs {
		t.Errorf("untraced requests logged:\n%s", strings.TrimPrefix(after, logs))
	}
}

// A server or node given no logger writes nowhere — not even to the
// process-wide default logger.
func TestNilLogIsSilent(t *testing.T) {
	if orDiscard(nil).Enabled(t.Context(), slog.LevelError) {
		t.Fatal("a nil Log is enabled")
	}
}

func TestNewTraceIDNonZeroAndConcurrent(t *testing.T) {
	seen := make(map[uint64]bool)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				id := NewTraceID()
				if id == 0 {
					t.Error("zero trace ID")
					return
				}
				mu.Lock()
				seen[id] = true
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if len(seen) < 1500 {
		t.Fatalf("too many collisions: %d unique of 1600", len(seen))
	}
	if got := TraceAttr(0xabc).String(); got != "trace=0000000000000abc" {
		t.Fatalf("TraceAttr = %q, want 16 hex digits", got)
	}
}
