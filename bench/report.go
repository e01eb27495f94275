package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
)

// metricDef names one reported metric. Bound is the share of the
// parent's median an end-to-end metric may worsen by before a change is
// rejected; per-layer metrics have none. Moves says which end-to-end
// metric a per-layer metric is expected to move, and where.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
	Moves  string
}

// benchmarkFile mirrors BENCHMARK.json.
type benchmarkFile struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []fileWorkload `json:"workloads"`
	EndToEnd   []fileEndToEnd `json:"end_to_end"`
	PerLayer   []filePerLayer `json:"per_layer"`
}

type fileWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type filePerLayer struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

type fileEndToEnd struct {
	filePerLayer
	Bound float64 `json:"bound"`
}

// benchmarkJSON renders BENCHMARK.json from the tables in metrics.go and
// workloads.go, so the file the driver reads cannot drift from what the
// program prints (a test compares the two).
func benchmarkJSON() ([]byte, error) {
	f := benchmarkFile{Command: []string{"bash", "bench/run.sh"}, Paths: []string{"bench"}, RunSeconds: runSeconds}
	for _, w := range workloads {
		f.Workloads = append(f.Workloads, fileWorkload{w.name, w.why})
	}
	for _, m := range endToEnd {
		f.EndToEnd = append(f.EndToEnd, fileEndToEnd{filePerLayer{m.Name, m.Unit, m.Better}, m.Bound})
	}
	for _, m := range perLayer {
		f.PerLayer = append(f.PerLayer, filePerLayer{m.Name, m.Unit, m.Better})
	}
	out, err := json.MarshalIndent(f, "", "  ")
	return append(out, '\n'), err
}

// resultLine is the contract's last line of standard output.
func resultLine(r *result) string {
	defs := endToEnd
	if r.traced {
		defs = perLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: r.correct(), Attempted: r.attempted, Failed: r.failed, Metrics: make(map[string]value, len(defs))}
	if out.Attempted < 1 {
		out.Attempted = 1
	}
	for _, m := range defs {
		v := r.metrics[m.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		out.Metrics[m.Name] = value{Value: v, Unit: m.Unit}
	}
	line, _ := json.Marshal(out)
	return string(line)
}

// printResult writes a run's metrics by name with their units, then its
// notes and any violations.
func printResult(w io.Writer, r *result) {
	defs, kind := endToEnd, "end-to-end, untraced"
	if r.traced {
		defs, kind = perLayer, "per-layer, traced"
	}
	fmt.Fprintf(w, "== %s (%s) ==\n", r.workload, kind)
	for _, m := range defs {
		fmt.Fprintf(w, "  %-36s %16s %s\n", m.Name, formatValue(r.metrics[m.Name]), m.Unit)
	}
	if !r.traced {
		// Reported with every untraced run, gated by none: see metrics.go.
		fmt.Fprintf(w, "  %-36s %16s ns   (not gated)\n", "cpu_ns_per_item", formatValue(r.metrics["cpu_ns_per_item"]))
		for _, name := range []string{"result_latency_p50_ms", "result_latency_p95_ms", "produce_ack_p50_ms", "produce_ack_p99_ms"} {
			fmt.Fprintf(w, "  %-36s %16s ms   (not gated)\n", name, formatValue(r.metrics[name]))
		}
	}
	for _, n := range r.notes {
		fmt.Fprintf(w, "  # %s\n", n)
	}
	if r.tracePath != "" {
		fmt.Fprintf(w, "  # spans written to %s\n", r.tracePath)
	}
	fmt.Fprintf(w, "  # attempted %d, failed %d, correct %v\n", r.attempted, r.failed, r.correct())
	for _, v := range r.violations {
		fmt.Fprintf(w, "  ! %s\n", v)
	}
}

func formatValue(v float64) string {
	a := math.Abs(v)
	switch {
	case a == 0:
		return "0"
	case a >= 1e5:
		return strconv.FormatFloat(v, 'f', 0, 64)
	case a >= 100:
		return strconv.FormatFloat(v, 'f', 2, 64)
	default:
		return strconv.FormatFloat(v, 'g', 5, 64)
	}
}

// printEnvironment records where the numbers were taken: go version,
// commit, CPU count, GOMAXPROCS and load. A one-minute load average above
// half the CPU count marks the run noisy.
func printEnvironment(w io.Writer) {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	load := math.NaN()
	if data, err := os.ReadFile("/proc/loadavg"); err == nil {
		if f := strings.Fields(string(data)); len(f) > 0 {
			load, _ = strconv.ParseFloat(f[0], 64)
		}
	}
	fmt.Fprintf(w, "# %s, commit %s, nproc %d, GOMAXPROCS %d, loadavg1 %.2f, noisy: %v\n",
		runtime.Version(), commit, runtime.NumCPU(), runtime.GOMAXPROCS(0), load,
		load > float64(runtime.NumCPU())/2)
}
