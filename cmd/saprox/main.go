// Command saprox regenerates the figures and tables of the StreamApprox
// paper's evaluation.
//
// Usage:
//
//	saprox list
//	saprox run <figure-id>... [-scale N] [-seed N] [-workers N]
//	saprox run all
//
// Figure ids match DESIGN.md's experiment index (fig4a ... fig10,
// abl-sync, abl-weights, abl-dist, abl-skip).
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"streamapprox/internal/experiment"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "saprox:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) == 0 {
		usage()
		return fmt.Errorf("missing command")
	}
	switch args[0] {
	case "list":
		return list()
	case "run":
		return runFigures(args[1:])
	case "bench-cluster":
		return runBenchCluster(args[1:])
	case "bench-e2e":
		return runBenchE2E(args[1:])
	case "status":
		return runStatus(args[1:])
	case "help", "-h", "--help":
		usage()
		return nil
	default:
		usage()
		return fmt.Errorf("unknown command %q", args[0])
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  saprox list                                  list available figure ids
  saprox run <id>... [flags]                   regenerate figures
  saprox run all [flags]                       regenerate everything
  saprox bench-cluster [flags]                 benchmark 1 vs 3 replicated
                                               brokers through the routing
                                               client, plus failover recovery
                                               time, and record the result
  saprox bench-e2e [flags]                     chaos benchmark: replay a workload
                                               through a proxy-fronted 3-broker
                                               cluster and a live query while
                                               injecting leader kill/blackhole,
                                               follower stall and slow disk;
                                               record throughput, p99, recovery
                                               time and observed error per
                                               scenario
  saprox status -brokers a1,a2 [-saproxd a]    scrape live /metrics endpoints and
                                               render leaders, ISR, replication
                                               lag, wire latency quantiles, the
                                               ingest plane's batch shape, and
                                               per-query error vs target

run flags:
  -scale N     dataset scale multiplier (default 1.0)
  -seed N      RNG seed (default 42)
  -workers N   engine parallelism (default 4)

bench-cluster flags:
  -records N       records per measurement (default 100000)
  -batch N         records per produce request (default 1000)
  -partitions N    topic partitions (default 4)
  -out FILE        result file (default BENCH_cluster.json; "-" for stdout only)

bench-e2e flags:
  -events N        events per scenario (default 40000)
  -batch N         events per produce request (default 500)
  -partitions N    topic partitions (default 4)
  -scenario NAME   run one scenario only: baseline, leader-kill,
                   leader-blackhole, follower-stall, slow-disk (default: all)
  -reps N          repetitions per scenario; the best-throughput rep is
                   recorded whole (default 3)
  -out FILE        result file (default BENCH_e2e.json; "-" for stdout only)

status flags:
  -brokers a1,a2   broker ADMIN addresses (the brokerd -http listeners)
  -saproxd a       saproxd address for per-query status
  -timeout d       per-scrape HTTP timeout (default 2s)`)
}

func list() error {
	all := experiment.All()
	ids := make([]string, 0, len(all))
	for id := range all {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		fmt.Println(id)
	}
	return nil
}

func runFigures(args []string) error {
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	scale := fs.Float64("scale", 1.0, "dataset scale multiplier")
	seed := fs.Uint64("seed", 42, "RNG seed")
	workers := fs.Int("workers", 4, "engine parallelism")
	asCSV := fs.Bool("csv", false, "emit CSV instead of aligned text")

	// Accept ids before flags: saprox run fig4a fig4b -scale 2.
	var ids []string
	rest := args
	for len(rest) > 0 && !strings.HasPrefix(rest[0], "-") {
		ids = append(ids, rest[0])
		rest = rest[1:]
	}
	if err := fs.Parse(rest); err != nil {
		return err
	}
	if len(ids) == 0 {
		return fmt.Errorf("no figure ids given; try `saprox list`")
	}

	all := experiment.All()
	if len(ids) == 1 && ids[0] == "all" {
		ids = ids[:0]
		for id := range all {
			ids = append(ids, id)
		}
		sort.Strings(ids)
	}
	opts := experiment.Options{Scale: *scale, Seed: *seed, Workers: *workers}
	for _, id := range ids {
		fn, ok := all[id]
		if !ok {
			return fmt.Errorf("unknown figure %q; try `saprox list`", id)
		}
		table, err := fn(opts)
		if err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
		if *asCSV {
			fmt.Print(table.CSV())
		} else {
			fmt.Println(table.Format())
		}
	}
	return nil
}
