// Command brokerd runs the Kafka-like stream aggregator as a TCP daemon
// (Figure 1's stream aggregator tier): one member of a replicated broker
// cluster, a one-member cluster when run alone.
//
// Usage:
//
//	brokerd [-addr host:port] [-topic name] [-partitions N]
//	        [-data-dir path] [-fsync always|interval|none]
//	        [-segment-records N]
//	        [-node-id id] [-peers id=host:port,id=host:port,...]
//	        [-replicas N] [-min-isr N] [-heartbeat d] [-fail-after N]
//	        [-dial-timeout d] [-probe-timeout d] [-rpc-timeout d]
//	        [-http host:port] [-log-level debug|info|warn|error]
//
// With -http an admin listener serves /metrics (Prometheus text),
// /healthz (ISR-aware readiness) and net/http/pprof. Log output is
// log/slog text lines on stdout; -log-level debug additionally logs
// every traced wire request (see `saprox status` and the README's
// Observability section).
//
// The daemon pre-creates the given topic and serves until interrupted.
// A client that has not drained a response burst within 30s has its
// connection closed.
//
// With -data-dir the partition logs are DURABLE: segmented append-only
// files with CRC-framed records, fsynced per -fsync (interval: every
// 50ms), recovered (with torn tails truncated) on the next start.
// Without it everything is in-memory and dies with the process.
//
// Without -peers the daemon is a one-member cluster: its member map is
// {-node-id: the bound listener address}, with one replica and min-ISR
// 1, so a retried produce is deduplicated as on any member.
//
// With -peers the daemon joins a broker cluster as -node-id: partition
// placement is rendezvous-hashed over the member list, each partition's
// leader streams appended chunks to its followers (`-replicas` copies,
// produce acked after `-min-isr` of them), and when a member dies its
// partitions fail over to the next live replica. Every member must be
// started with the same -peers map and the same topic flags. Point
// producers and saproxd at any subset of members (`saproxd -brokers`).
// A killed member restarted with the same -node-id and -data-dir
// recovers its logs, rejoins the running cluster as a follower,
// truncates any divergence back to the committed watermark, catches up
// and re-enters the ISR.
package main

import (
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"streamapprox/internal/broker"
	"streamapprox/internal/broker/storage"
	"streamapprox/internal/metrics"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "brokerd:", err)
		os.Exit(1)
	}
}

// parsePeers parses "id=host:port,id=host:port,..." into a member map.
func parsePeers(s string) (map[string]string, error) {
	peers := make(map[string]string)
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		id, addr, ok := strings.Cut(part, "=")
		if !ok || id == "" || addr == "" {
			return nil, fmt.Errorf("bad peer %q (want id=host:port)", part)
		}
		if _, dup := peers[id]; dup {
			return nil, fmt.Errorf("duplicate peer id %q", id)
		}
		peers[id] = addr
	}
	if len(peers) == 0 {
		return nil, fmt.Errorf("empty -peers")
	}
	return peers, nil
}

func run() error {
	addr := flag.String("addr", "127.0.0.1:9092", "listen address")
	topic := flag.String("topic", "stream", "topic to pre-create")
	partitions := flag.Int("partitions", 4, "partition count for the topic")
	dataDir := flag.String("data-dir", "", "directory for durable partition logs (empty: in-memory)")
	fsyncFlag := flag.String("fsync", "always", "fsync policy for appended records: always, interval or none")
	segRecords := flag.Int("segment-records", 0, "records per segment file (0: default 4096)")
	nodeID := flag.String("node-id", "n0", "cluster member id")
	peersFlag := flag.String("peers", "", "full cluster member map id=host:port,... (must include -node-id; empty: a one-member cluster)")
	replicas := flag.Int("replicas", 2, "replication factor per partition (with -peers)")
	minISR := flag.Int("min-isr", 0, "replicas that must ack a produce, counting the leader (0: = -replicas)")
	heartbeat := flag.Duration("heartbeat", 250*time.Millisecond, "peer heartbeat interval")
	failAfter := flag.Int("fail-after", 3, "consecutive failed probes before a peer is declared dead")
	dialTimeout := flag.Duration("dial-timeout", broker.DefaultDialTimeout, "TCP connect bound for node-to-node dials")
	probeTimeout := flag.Duration("probe-timeout", 0, "deadline for one heartbeat probe RPC (0: 4x -heartbeat, min 1s)")
	rpcTimeout := flag.Duration("rpc-timeout", 10*time.Second, "deadline for each replicate and other peer RPCs; replicates that time out together on one connection count one missed probe")
	httpAddr := flag.String("http", "", "admin listen address for /metrics, /healthz and pprof (empty: disabled)")
	var level slog.Level
	flag.TextVar(&level, "log-level", slog.LevelInfo, "log level: debug, info, warn or error")
	flag.Parse()

	logger := slog.New(slog.NewTextHandler(os.Stdout, &slog.HandlerOptions{Level: level})).With("daemon", "brokerd")

	policy, err := storage.ParseSyncPolicy(*fsyncFlag)
	if err != nil {
		return err
	}
	b, err := broker.Open(broker.StorageConfig{
		Dir:            *dataDir,
		Policy:         policy,
		SegmentRecords: *segRecords,
	})
	if err != nil {
		return err
	}
	// On a restart the topic is recovered from the data directory; a
	// partition count that disagrees with the flags is an operator
	// error better caught at boot than as mysterious routing failures.
	if err := b.CreateTopic(*topic, *partitions); err != nil {
		if !errors.Is(err, broker.ErrTopicExists) {
			return err
		}
		if n, err := b.Partitions(*topic); err != nil {
			return err
		} else if n != *partitions {
			return fmt.Errorf("recovered topic %q has %d partitions but -partitions is %d; match the flag or use a fresh -data-dir", *topic, n, *partitions)
		}
	}

	var peers map[string]string
	if *peersFlag != "" {
		if peers, err = parsePeers(*peersFlag); err != nil {
			return err
		}
	}
	srv, err := broker.ServeWithOptions(b, *addr, broker.ServerOptions{
		Metrics: b.Metrics(),
		Log:     logger,
	})
	if err != nil {
		return err
	}
	defer srv.Close()
	if peers == nil {
		peers = map[string]string{*nodeID: srv.Addr()}
		*replicas, *minISR = 1, 1
	}
	node, err := broker.NewClusterNode(b, broker.NodeConfig{
		ID:             *nodeID,
		Peers:          peers,
		Replicas:       *replicas,
		MinISR:         *minISR,
		HeartbeatEvery: *heartbeat,
		FailAfter:      *failAfter,
		DialTimeout:    *dialTimeout,
		ProbeTimeout:   *probeTimeout,
		RPCTimeout:     *rpcTimeout,
		Log:            logger,
	})
	if err != nil {
		return err
	}
	// Identity gauge: lets scrapers (saprox status) map a /metrics
	// endpoint back to a cluster member id.
	b.Metrics().Gauge("broker_info",
		"Always 1; the node label identifies this broker.",
		metrics.Labels{"node": *nodeID}).Set(1)
	node.RegisterMetrics(b.Metrics())
	srv.AttachNode(node)
	node.Start()
	defer node.Close()

	var admin *http.Server
	if *httpAddr != "" {
		ln, err := net.Listen("tcp", *httpAddr)
		if err != nil {
			return fmt.Errorf("admin listener: %w", err)
		}
		admin = &http.Server{Handler: broker.AdminHandler(b, node)}
		go func() {
			if err := admin.Serve(ln); err != nil && err != http.ErrServerClosed {
				logger.Error("admin listener failed", "err", err)
			}
		}()
		defer admin.Close()
		logger.Info("admin listening", "addr", ln.Addr().String())
	}

	store := "in-memory"
	if *dataDir != "" {
		store = fmt.Sprintf("durable %s (fsync %s)", *dataDir, policy)
	}
	logger.Info("listening", "addr", srv.Addr(), "topic", *topic, "partitions", *partitions,
		"storage", store, "node", *nodeID, "replicas", *replicas)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	logger.Info("shutting down")
	return nil
}
