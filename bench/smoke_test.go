package main

import (
	"bytes"
	"os"
	"regexp"
	"strings"
	"testing"
)

// TestSmoke runs every workload at a hundredth of its size, untraced and
// traced, so that a change breaking the harness's use of an exported
// function fails here instead of in the first benchmark run. -short
// skips the workloads that stand up a TCP cluster.
func TestSmoke(t *testing.T) {
	for _, wl := range workloads {
		for _, traced := range []bool{false, true} {
			name := wl.name + "/untraced"
			if traced {
				name = wl.name + "/traced"
			}
			t.Run(name, func(t *testing.T) {
				if testing.Short() && wl.brokers > 0 {
					t.Skip("cluster workload")
				}
				res, err := run(wl, options{seed: 1, seconds: runSeconds * 0.01, traced: traced, setups: 1, outDir: t.TempDir()})
				if err != nil {
					t.Fatal(err)
				}
				if !res.correct() {
					t.Fatalf("violations: %v", res.violations)
				}
				defs := endToEnd
				if traced {
					defs = perLayer
				}
				for _, m := range defs {
					if _, ok := res.metrics[m.Name]; !ok && !traced {
						t.Errorf("metric %s not reported", m.Name)
					}
				}
				if !traced {
					for _, m := range []string{"setup_s", "items_per_s", "rel_err_mean", "bound_coverage", "peak_rss_mb"} {
						if res.metrics[m] <= 0 {
							t.Errorf("%s = %v", m, res.metrics[m])
						}
					}
				} else if res.metrics["stage.sum_ns_per_item"] <= 0 || res.metrics["trace.spans"] <= 0 {
					t.Errorf("staged pass reported %v ns/item over %v spans",
						res.metrics["stage.sum_ns_per_item"], res.metrics["trace.spans"])
				}
			})
		}
	}
}

// TestBenchmarkTablesMeetTheContract checks the limits the driver puts
// on BENCHMARK.json against the tables it is rendered from.
func TestBenchmarkTablesMeetTheContract(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := make(map[string]bool)
	check := func(n string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	if len(workloads) < 2 || len(workloads) > 8 || len(endToEnd) > 16 || len(perLayer) > 128 {
		t.Errorf("%d workloads, %d end-to-end and %d per-layer metrics", len(workloads), len(endToEnd), len(perLayer))
	}
	for _, w := range workloads {
		check(w.name)
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("%s: why is not one line of at most 200 characters", w.name)
		}
	}
	setup := false
	for _, m := range endToEnd {
		check(m.Name)
		if !unit.MatchString(m.Unit) || m.Bound <= 0 || m.Bound > 0.25 || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("end-to-end metric %+v", m)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	for _, m := range perLayer {
		check(m.Name)
		if !unit.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") || m.Moves == "" {
			t.Errorf("per-layer metric %+v", m)
		}
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	if runSeconds < 1 || runSeconds > 60 {
		t.Errorf("run_seconds %d", runSeconds)
	}
}

// TestBenchmarkFileMatchesTheProgram keeps BENCHMARK.json, which the
// driver reads, identical to what the tables in this package render.
func TestBenchmarkFileMatchesTheProgram(t *testing.T) {
	want, err := benchmarkJSON()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("BENCHMARK.json differs from `bench -benchmark-json`; regenerate it")
	}
}
