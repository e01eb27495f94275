// Command bench is the repository's one benchmark. It drives the real
// pipeline — workload generators → broker (client, wire, replication,
// fetch) → stream.EventBatch → server (shared ingest plane, shards,
// merger, HTTP result stream) → streamapprox.Session → sampling.OASRS →
// estimate — on four named workloads, prints every metric by name with
// its unit, and checks every output against an exact oracle.
//
// Without -workload it runs the whole suite: every workload untraced
// (the end-to-end metrics) and then traced (the per-layer metrics and the
// staged waterfall). With -workload it makes the single run
// BENCHMARK.json describes and ends its output with that run's result
// line. See README.md.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
)

func main() {
	var (
		name    = flag.String("workload", "", "run one workload and end with its result line (default: the whole suite)")
		seed    = flag.Uint64("seed", 1, "seed of the input generator")
		seconds = flag.Float64("seconds", runSeconds, "run length: a run measures rate × seconds events")
		trace   = flag.Int("trace", 0, "1: traced run reporting the per-layer metrics; 0: untraced run reporting the end-to-end metrics")
		scale   = flag.Float64("scale", 1, "multiply -seconds, for smoke runs")
		aa      = flag.Bool("aa", false, "run the untraced suite twice over (three runs a side) and compare the medians against the bounds")
		out     = flag.String("out", defaultOutDir(), "directory a traced run writes its spans to")
		emit    = flag.Bool("benchmark-json", false, "print BENCHMARK.json as the tables in this program define it, and exit")
	)
	flag.Parse()
	if *emit {
		data, err := benchmarkJSON()
		if err != nil {
			fatal(err)
		}
		_, _ = os.Stdout.Write(data)
		return
	}
	opt := options{seed: *seed, seconds: *seconds * *scale, traced: *trace == 1, setups: 3, outDir: *out}
	printEnvironment(os.Stdout)

	if *name != "" {
		wl := workloadByName(*name)
		if wl == nil {
			fatal(fmt.Errorf("unknown workload %q", *name))
		}
		res, err := run(wl, opt)
		if err != nil {
			fatal(err)
		}
		printResult(os.Stdout, res)
		fmt.Println(resultLine(res))
		if !res.correct() {
			os.Exit(1)
		}
		return
	}

	if *aa {
		if !compareAA(os.Stdout, opt) {
			os.Exit(1)
		}
		return
	}
	ok := true
	for _, traced := range []bool{false, true} {
		opt.traced = traced
		for _, wl := range workloads {
			res, err := run(wl, opt)
			if err != nil {
				fatal(err)
			}
			printResult(os.Stdout, res)
			ok = ok && res.correct()
		}
	}
	if !ok {
		os.Exit(1)
	}
}

// defaultOutDir is bench/out when run from the repository root (as
// `go run ./bench` and the driver do), ./out from inside bench/.
func defaultOutDir() string {
	if st, err := os.Stat("bench"); err == nil && st.IsDir() {
		return "bench/out"
	}
	return "out"
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

// aaRuns is how many runs of each workload make one side of an A/A
// comparison; the sides are compared by their medians, as the driver
// compares a change with its parent.
const aaRuns = 3

// compareAA runs the untraced suite twice over on the same code, each
// side aaRuns times with consecutive seeds, and prints, per (metric,
// workload), both medians, their relative difference and the bound. It
// reports whether every metric agreed within its bound.
func compareAA(w *os.File, opt options) bool {
	opt.traced = false
	var sides [2]map[string][]*result
	clean := true
	for i := range sides {
		sides[i] = make(map[string][]*result)
		for r := 0; r < aaRuns; r++ {
			opt.seed++
			for _, wl := range workloads {
				res, err := run(wl, opt)
				if err != nil {
					fatal(err)
				}
				printResult(w, res)
				sides[i][wl.name] = append(sides[i][wl.name], res)
				clean = clean && res.correct() && res.failed == 0
			}
		}
	}
	medianOf := func(rs []*result, name string) float64 {
		var v []float64
		for _, r := range rs {
			v = append(v, r.metrics[name])
		}
		return median(v)
	}
	ok := clean
	fmt.Fprintf(w, "\n%-24s %-14s %14s %14s %8s %7s\n", "metric", "workload", "A", "A'", "diff", "bound")
	for _, m := range endToEnd {
		for _, wl := range workloads {
			va, vb := medianOf(sides[0][wl.name], m.Name), medianOf(sides[1][wl.name], m.Name)
			// A/A asks whether the two sides agree, so the difference is taken
			// relative to the smaller value whichever side it is on.
			worse := math.Abs(va-vb) / math.Min(va, vb)
			verdict := ""
			if worse > m.Bound {
				verdict = "  DISAGREE"
				ok = false
			}
			fmt.Fprintf(w, "%-24s %-14s %14s %14s %7.1f%% %6.0f%%%s\n", m.Name, wl.name,
				formatValue(va), formatValue(vb), worse*100, m.Bound*100, verdict)
		}
	}
	return ok
}
