// Command replay feeds a synthetic case-study dataset into a broker at a
// controlled rate — the traffic replay tool of the paper's methodology
// (§6.1: replay starts at 2000 messages/second, 200 items per message,
// and is increased until the system under test saturates).
//
// Usage:
//
//	replay -dataset netflow|taxi|gaussian [-addr h1:port,h2:port,...]
//	       [-topic name] [-items N] [-rate msgs/sec] [-batch items-per-msg]
//	       [-seed N]
//
// It produces through the routing client: each message is split by key
// on this side and sent to every partition's leader with a producer id
// and sequence, so a message retried across a leader failover lands
// exactly once. -addr takes any reachable members of a cluster; a single
// brokerd is a one-member cluster with one address.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"streamapprox/internal/broker"
	"streamapprox/internal/stream"
	"streamapprox/internal/workload"
	"streamapprox/internal/xrand"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "replay:", err)
		os.Exit(1)
	}
}

func run() error {
	dataset := flag.String("dataset", "netflow", "dataset: netflow, taxi or gaussian")
	addr := flag.String("addr", "127.0.0.1:9092", "comma-separated broker addresses")
	topic := flag.String("topic", "stream", "target topic")
	items := flag.Int("items", 400000, "number of items to replay")
	rate := flag.Int("rate", 2000, "messages per second (0 = full speed)")
	batch := flag.Int("batch", 200, "items per message")
	seed := flag.Uint64("seed", 42, "RNG seed")
	flag.Parse()

	rng := xrand.New(*seed)
	var events []stream.Event
	switch *dataset {
	case "netflow":
		events = workload.NetFlowEvents(rng, *items, time.Duration(*items)*time.Millisecond)
	case "taxi":
		events = workload.TaxiEvents(rng, *items, time.Duration(*items)*time.Millisecond)
	case "gaussian":
		seconds := *items / 6000
		if seconds < 1 {
			seconds = 1
		}
		events = workload.Generate(rng, time.Duration(seconds)*time.Second,
			workload.PaperGaussian(2000, 2000, 2000)...)
	default:
		return fmt.Errorf("unknown dataset %q", *dataset)
	}

	// One trace ID for the whole replay: stamped on the wire so broker-side
	// logs attribute this run's produces, and on every progress line so
	// the two sides grep together.
	runID := broker.NewTraceID()
	logger := slog.New(slog.NewTextHandler(os.Stderr, nil)).With("daemon", "replay", broker.TraceAttr(runID))

	cli, err := broker.DialCluster(strings.Split(*addr, ","))
	if err != nil {
		return err
	}
	defer func() { _ = cli.Close() }()
	cli.SetTraceID(runID)

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()

	r := &workload.Replayer{MessagesPerSecond: *rate, ItemsPerMessage: *batch}
	logger.Info("replay starting", "dataset", *dataset, "items", len(events),
		"rate_msgs_per_s", *rate, "batch", *batch, "topic", *topic, "addr", *addr)
	start := time.Now()
	n, err := r.Replay(ctx, cli, *topic, events)
	elapsed := time.Since(start)
	logger.Info("replay finished", "items", n, "elapsed", elapsed.Round(time.Millisecond),
		"items_per_s", fmt.Sprintf("%.0f", float64(n)/elapsed.Seconds()))
	return err
}
