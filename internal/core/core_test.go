package core

import (
	"math"
	"reflect"
	"testing"
	"time"

	"streamapprox/internal/estimate"
	"streamapprox/internal/query"
	"streamapprox/internal/stream"
	"streamapprox/internal/workload"
	"streamapprox/internal/xrand"
)

// gaussianStream generates the §5.1 synthetic workload: three Gaussian
// sub-streams at equal rates for the given duration.
func gaussianStream(t testing.TB, seconds int) []stream.Event {
	t.Helper()
	rng := xrand.New(42)
	return workload.Generate(rng, time.Duration(seconds)*time.Second,
		workload.PaperGaussian(2000, 2000, 2000)...)
}

func trueSum(events []stream.Event) float64 {
	var s float64
	for _, e := range events {
		s += e.Value
	}
	return s
}

func TestSystemStrings(t *testing.T) {
	for _, s := range Systems() {
		if s.String() == "" || s.String()[0] == 'S' {
			t.Errorf("System %d has suspicious name %q", int(s), s.String())
		}
	}
	if System(99).String() != "System(99)" {
		t.Error("unknown system name")
	}
	if !NativeFlink.IsNative() || SparkApprox.IsNative() {
		t.Error("IsNative broken")
	}
	if !FlinkApprox.IsPipelined() || SparkSTS.IsPipelined() {
		t.Error("IsPipelined broken")
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.Workers != 4 || c.BatchInterval != 500*time.Millisecond ||
		c.WindowSize != 10*time.Second || c.WindowSlide != 5*time.Second ||
		c.Query == nil || c.Seed == 0 {
		t.Errorf("defaults = %+v", c)
	}
}

func TestAllSystemsRun(t *testing.T) {
	events := gaussianStream(t, 12)
	for _, sys := range Systems() {
		sys := sys
		t.Run(sys.String(), func(t *testing.T) {
			stats, err := Run(Config{System: sys, Fraction: 0.5, Seed: 7}, events)
			if err != nil {
				t.Fatal(err)
			}
			if stats.Items != int64(len(events)) {
				t.Errorf("Items = %d, want %d", stats.Items, len(events))
			}
			if len(stats.Results) == 0 {
				t.Fatal("no window results")
			}
			if stats.Throughput <= 0 {
				t.Error("non-positive throughput")
			}
			// Every window must have observed items and produced a value.
			for _, r := range stats.Results {
				if r.Items <= 0 {
					t.Errorf("window %v observed no items", r.Start)
				}
				if r.Result.Overall.Value <= 0 {
					t.Errorf("window %v estimate %v", r.Start, r.Result.Overall.Value)
				}
			}
		})
	}
}

func TestNativeSystemsAreExact(t *testing.T) {
	events := gaussianStream(t, 12)
	truth := GroundTruth(Config{}, events)
	for _, sys := range []System{NativeSpark, NativeFlink} {
		stats, err := Run(Config{System: sys, Seed: 3}, events)
		if err != nil {
			t.Fatal(err)
		}
		if len(stats.Results) != len(truth) {
			t.Fatalf("%v produced %d windows, truth has %d", sys, len(stats.Results), len(truth))
		}
		for i, r := range stats.Results {
			want := truth[i].Result.Overall.Value
			if rel := estimate.AccuracyLoss(r.Result.Overall.Value, want); rel > 1e-9 {
				t.Errorf("%v window %d: %v vs exact %v (loss %v)",
					sys, i, r.Result.Overall.Value, want, rel)
			}
			if r.Result.Overall.Bound != 0 {
				t.Errorf("%v window %d: exact result has bound %v", sys, i, r.Result.Overall.Bound)
			}
		}
	}
}

func TestApproxSystemsAccuracy(t *testing.T) {
	events := gaussianStream(t, 12)
	truth := GroundTruth(Config{}, events)
	for _, sys := range []System{SparkApprox, FlinkApprox, SparkSTS} {
		stats, err := Run(Config{System: sys, Fraction: 0.6, Seed: 5}, events)
		if err != nil {
			t.Fatal(err)
		}
		if len(stats.Results) != len(truth) {
			t.Fatalf("%v: %d windows vs %d", sys, len(stats.Results), len(truth))
		}
		var worst float64
		for i, r := range stats.Results {
			loss := estimate.AccuracyLoss(r.Result.Overall.Value, truth[i].Result.Overall.Value)
			if loss > worst {
				worst = loss
			}
		}
		// Stratified sampling at 60% on this workload should be well
		// under 5% loss per window (the paper reports <1% average).
		if worst > 0.05 {
			t.Errorf("%v worst-window accuracy loss = %v", sys, worst)
		}
	}
}

// TestSampledCountsEachRecordOnce: a run's Sampled counts each sampled
// record once, not once per window that covers it: at fraction 1 every
// system samples exactly its items, over 10 s / 5 s windows that cover
// each record twice.
func TestSampledCountsEachRecordOnce(t *testing.T) {
	events := gaussianStream(t, 4)
	for _, sys := range Systems() {
		stats, err := Run(Config{System: sys, Fraction: 1, Seed: 3}, events)
		if err != nil {
			t.Fatal(err)
		}
		if stats.Sampled != stats.Items {
			t.Errorf("%v: sampled %d of %d items", sys, stats.Sampled, stats.Items)
		}
	}
}

func TestApproxSampledLessThanNative(t *testing.T) {
	events := gaussianStream(t, 12)
	approx, err := Run(Config{System: SparkApprox, Fraction: 0.2, Seed: 11}, events)
	if err != nil {
		t.Fatal(err)
	}
	native, err := Run(Config{System: NativeSpark, Seed: 11}, events)
	if err != nil {
		t.Fatal(err)
	}
	if approx.Sampled >= native.Sampled {
		t.Errorf("approx sampled %d >= native %d", approx.Sampled, native.Sampled)
	}
	if approx.Sampled <= 0 {
		t.Error("approx sampled nothing")
	}
}

func TestErrorBoundsContainTruthMostly(t *testing.T) {
	events := gaussianStream(t, 40)
	truth := GroundTruth(Config{}, events)
	covered, total := 0, 0
	for seed := uint64(13); seed < 16; seed++ {
		stats, err := Run(Config{System: SparkApprox, Fraction: 0.3, Seed: seed}, events)
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range stats.Results {
			total++
			if r.Result.Overall.Contains(truth[i].Result.Overall.Value) {
				covered++
			}
		}
	}
	if total < 20 {
		t.Fatalf("only %d windows observed", total)
	}
	// 95% nominal coverage; allow generous Monte-Carlo slack.
	if rate := float64(covered) / float64(total); rate < 0.85 {
		t.Errorf("95%% bounds covered truth in only %d/%d windows (%.2f)", covered, total, rate)
	}
}

func TestGroupByQueryAcrossSystems(t *testing.T) {
	rng := xrand.New(77)
	events := workload.NetFlowEvents(rng, 120000, 20*time.Second)
	cfg := Config{
		System:   SparkApprox,
		Fraction: 0.6,
		Query:    query.NewGroupBySum(estimate.Conf95),
		Seed:     17,
	}
	truth := GroundTruth(cfg, events)
	stats, err := Run(cfg, events)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range stats.Results {
		for _, proto := range []string{"tcp", "udp", "icmp"} {
			want, ok := truth[i].Result.Groups[proto]
			if !ok {
				continue
			}
			got, ok := r.Result.Groups[proto]
			if !ok {
				t.Errorf("window %d missing group %s", i, proto)
				continue
			}
			if loss := estimate.AccuracyLoss(got.Value, want.Value); loss > 0.25 {
				t.Errorf("window %d %s: loss %v (got %v want %v)", i, proto, loss, got.Value, want.Value)
			}
		}
	}
}

func TestGroundTruthMatchesDirectSum(t *testing.T) {
	events := gaussianStream(t, 6)
	truth := GroundTruth(Config{WindowSize: 100 * time.Second, WindowSlide: 100 * time.Second}, events)
	var total float64
	for _, r := range truth {
		total += r.Result.Overall.Value
	}
	if want := trueSum(events); math.Abs(total-want)/want > 1e-9 {
		t.Errorf("ground truth sum %v, direct %v", total, want)
	}
}

// TestRunDeterministicWithSeed: every system, and GroundTruth, serves
// the same windows bit for bit on every run with one seed, however its
// workers are scheduled.
func TestRunDeterministicWithSeed(t *testing.T) {
	events := gaussianStream(t, 8)
	run := func(sys System) []WindowResult {
		cfg := Config{System: sys, Fraction: 0.4, Seed: 99, Query: query.NewGroupBySum(estimate.Conf95)}
		if sys == 0 {
			return GroundTruth(cfg, events)
		}
		stats, err := Run(cfg, events)
		if err != nil {
			t.Fatal(err)
		}
		return stats.Results
	}
	for _, sys := range append(Systems(), 0) {
		first := run(sys)
		for i := 1; i < 10; i++ {
			again := run(sys)
			if len(again) != len(first) {
				t.Fatalf("%v: window counts differ: %d vs %d", sys, len(again), len(first))
			}
			for j := range first {
				a, b := first[j], again[j]
				if a.Items != b.Items || a.Sampled != b.Sampled || !reflect.DeepEqual(a.Result, b.Result) {
					t.Fatalf("%v window %d differs across same-seed runs:\n%+v\n%+v", sys, j, a.Result, b.Result)
				}
			}
		}
	}
}

// TestGroundTruthCountsEachWindow: GroundTruth counts every event in each
// window that covers it and nothing else.
func TestGroundTruthCountsEachWindow(t *testing.T) {
	base := time.Date(2017, 12, 11, 0, 0, 0, 0, time.UTC)
	var events []stream.Event
	for sec := 0; sec < 30; sec++ {
		events = append(events, stream.Event{Stratum: "s", Value: 1, Time: base.Add(time.Duration(sec) * time.Second)})
	}
	truth := GroundTruth(Config{Query: query.NewCount(estimate.Conf95)}, events)
	if len(truth) != 7 { // [-5,5) through [25,35)
		t.Fatalf("%d windows, want 7", len(truth))
	}
	for _, r := range truth {
		var want int64
		for _, e := range events {
			if !e.Time.Before(r.Start) && e.Time.Before(r.End) {
				want++
			}
		}
		if r.Items != want || r.Result.Overall.Value != float64(want) {
			t.Errorf("window [%v, %v): items %d count %v, want %d", r.Start, r.End, r.Items, r.Result.Overall.Value, want)
		}
	}
	if got := GroundTruth(Config{}, nil); len(got) != 0 {
		t.Errorf("GroundTruth(nil) = %v", got)
	}
}

func TestSRSMissesRareStratumButOASRSDoesNot(t *testing.T) {
	// The central qualitative claim (Fig. 7): with heavy skew, OASRS keeps
	// the rare-but-significant stratum while SRS can miss it.
	rng := xrand.New(21)
	events := workload.Generate(rng, 12*time.Second, workload.SkewGaussian(10000)...)
	cfg := Config{Fraction: 0.1, Seed: 23, Query: query.NewGroupByCount(estimate.Conf95)}

	cfg.System = SparkApprox
	approx, err := Run(cfg, events)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range approx.Results {
		if _, ok := r.Result.Groups["C"]; !ok {
			t.Errorf("OASRS window %d lost rare stratum C", i)
		}
	}
}

// BenchmarkRunOASRSPipelined runs the pipelined engine's replicas once
// per op: FlinkApprox over ten seconds of the §5.1 workload.
func BenchmarkRunOASRSPipelined(b *testing.B) {
	events := gaussianStream(b, 10)
	cfg := Config{System: FlinkApprox, Fraction: 0.6, Seed: 1}
	b.ReportAllocs()
	b.ResetTimer()
	var items int64
	for i := 0; i < b.N; i++ {
		stats, err := Run(cfg, events)
		if err != nil {
			b.Fatal(err)
		}
		items += stats.Items
	}
	b.StopTimer()
	if elapsed := b.Elapsed().Seconds(); elapsed > 0 {
		b.ReportMetric(float64(items)/elapsed, "items/s")
	}
}
