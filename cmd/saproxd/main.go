// Command saproxd runs the sharded, multi-tenant approximate-query
// service: a shared ingest plane consumes a brokerd topic with exactly
// one positioned reader per partition — however many queries are
// registered — fans every batch out to all of them, and serves each
// query's merged per-window "result ± error" stream over HTTP.
//
// Usage:
//
//	saproxd [-addr host:port] [-brokers h1:port,h2:port,...] [-topic name]
//	        [-checkpoint-dir dir] [-checkpoint-every d]
//	        [-connect-wait d] [-log-level level]
//
// The initial broker connection is retried with capped backoff (forever
// by default; bound it with -connect-wait), so saproxd can be started
// before its cluster in an ordering-free bring-up.
//
// The daemon consumes the -brokers members through the routing client:
// fetches go to each partition's current leader, NotLeader redirects are
// followed, and a broker failover is absorbed without losing or
// duplicating any query's windows. A single brokerd is a one-member
// cluster, reached by its one address.
//
// API:
//
//	POST   /v1/queries              register {"kind":"mean","window":"10s",...}
//	GET    /v1/queries              list registered queries
//	GET    /v1/queries/{id}         one query's spec and shard counters
//	DELETE /v1/queries/{id}         flush and remove a query
//	GET    /v1/queries/{id}/results?since=N   poll merged windows
//	GET    /v1/queries/{id}/stream  NDJSON stream of merged windows
//	GET    /healthz                 liveness
//	GET    /metrics                 Prometheus text exposition
//
// A query registered with a target_error runs the paper's feedback
// loop on each of its shards, moving the sampling fraction toward that
// relative error; any other query samples its spec's fraction.
//
// With -checkpoint-dir set, each query's delivery watermarks, Session
// snapshots and partially merged windows are checkpointed periodically
// to a file of its own and restored on restart, so a killed daemon
// resumes where it left off.
//
// On SIGTERM/SIGINT the daemon shuts down gracefully: it stops
// accepting HTTP work, quiesces the ingest plane, finishes in-flight
// merges, flushes every query's checkpoint, and only then exits.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"streamapprox/internal/broker"
	"streamapprox/internal/server"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "saproxd:", err)
		os.Exit(1)
	}
}

func run() error {
	addr := flag.String("addr", "127.0.0.1:9090", "HTTP listen address")
	brokersFlag := flag.String("brokers", "127.0.0.1:9092", "comma-separated broker addresses (any members of the cluster; one for a single brokerd)")
	topic := flag.String("topic", "stream", "topic to consume")
	checkpointDir := flag.String("checkpoint-dir", "", "directory for shard checkpoints (empty disables)")
	checkpointEvery := flag.Duration("checkpoint-every", 5*time.Second, "checkpoint interval")
	connectWait := flag.Duration("connect-wait", 0, "keep retrying the initial broker connection for this long before giving up (0: forever)")
	var level slog.Level
	flag.TextVar(&level, "log-level", slog.LevelInfo, "log level: debug, info, warn or error")
	flag.Parse()

	logger := slog.New(slog.NewTextHandler(os.Stdout, &slog.HandlerOptions{Level: level})).With("daemon", "saproxd")

	// Catch shutdown signals before the connect loop, so an operator can
	// interrupt a daemon still waiting for its cluster to come up.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)

	addrs := strings.Split(*brokersFlag, ",")
	for i := range addrs {
		addrs[i] = strings.TrimSpace(addrs[i])
	}
	// Retry the initial connection with capped backoff instead of
	// exiting: in a compose-style bring-up the cluster may simply not be
	// listening yet, and start order should not matter.
	var (
		cli *broker.ClusterClient
		err error
	)
	start := time.Now()
	for backoff := 250 * time.Millisecond; ; {
		if cli, err = broker.DialCluster(addrs); err == nil {
			break
		}
		if *connectWait > 0 && time.Since(start) >= *connectWait {
			return fmt.Errorf("broker not reachable after %v: %w", *connectWait, err)
		}
		logger.Warn("broker not reachable; retrying", "err", err, "backoff", backoff)
		t := time.NewTimer(backoff)
		select {
		case s := <-sig:
			t.Stop()
			logger.Info("shutting down before broker came up", "signal", s)
			return nil
		case <-t.C:
		}
		if backoff < 5*time.Second {
			backoff *= 2
			if backoff > 5*time.Second {
				backoff = 5 * time.Second
			}
		}
	}
	defer func() { _ = cli.Close() }()

	// One routing client for control + catch-up work, plus a DialShard
	// factory handing each ingest partition loop its own client so
	// partition fetches run in parallel.
	srv, err := server.New(server.Config{
		Cluster:         cli,
		DialShard:       func() (broker.Cluster, error) { return broker.DialCluster(addrs) },
		Topic:           *topic,
		CheckpointDir:   *checkpointDir,
		CheckpointEvery: *checkpointEvery,
		Log:             logger,
	})
	if err != nil {
		return err
	}
	defer srv.Close()

	// Wrap the API handler with the standard pprof endpoints so a live
	// saproxd can be profiled without a separate listener.
	mux := http.NewServeMux()
	mux.Handle("/", srv.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)

	httpSrv := &http.Server{Addr: *addr, Handler: mux}
	errc := make(chan error, 1)
	go func() {
		if err := httpSrv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
			errc <- err
		}
	}()
	logger.Info("serving", "addr", *addr, "brokers", *brokersFlag, "topic", *topic,
		"partitions", srv.Partitions())

	select {
	case err := <-errc:
		return err
	case s := <-sig:
		logger.Info("shutting down", "signal", s)
	}
	// Graceful order: stop accepting HTTP work, then let srv.Close
	// quiesce the ingest plane, finish in-flight merges, and flush
	// every query's checkpoint before the process exits — nothing
	// mid-merge is dropped.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = httpSrv.Shutdown(ctx)
	srv.Close()
	logger.Info("checkpoints flushed; bye")
	return nil
}
