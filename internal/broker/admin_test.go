package broker

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"streamapprox/internal/metrics"
	"streamapprox/internal/obs"
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
			Log:     obs.New(io.Discard, obs.LevelInfo),
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
			"broker_partition_log_end_offset", "broker_log_segments", "broker_log_bytes",
		} {
			if len(sc.Select(fam, nil)) == 0 {
				t.Errorf("node %d: family %s missing", i, fam)
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
		if len(sc.Select("broker_requests_total", nil)) > 0 {
			sawReq = true
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
// server's structured debug log for the requests it issued.
func TestTraceIDReachesBrokerLogs(t *testing.T) {
	b := New()
	if err := b.CreateTopic("t", 1); err != nil {
		t.Fatal(err)
	}
	buf := &syncBuf{}
	srv := serveMember(t, b, ServerOptions{
		Metrics: b.Metrics(),
		Log:     obs.New(buf, obs.LevelDebug),
	})
	cli, err := Dial(srv.Addr())
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
	want := obs.TraceHex(tid)
	if !strings.Contains(logs, "trace="+want) {
		t.Fatalf("broker logs do not mention trace %s:\n%s", want, logs)
	}
	if !strings.Contains(logs, "op=producep") || !strings.Contains(logs, "op=fetch") {
		t.Errorf("traced ops missing from logs:\n%s", logs)
	}

	// An untraced connection must leave no trace lines behind.
	cli.SetTraceID(0)
	if _, err := producePart(cli, "t", 0, 0, 0, keylessRecs(10, 5)); err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(buf.String(), "trace="); n < 2 {
		t.Errorf("expected the traced produce+fetch lines only, got %d trace lines", n)
	}
}
