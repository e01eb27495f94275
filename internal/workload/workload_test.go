package workload

import (
	"context"
	"math"
	"testing"
	"time"

	"streamapprox/internal/broker"
	"streamapprox/internal/stream"
	"streamapprox/internal/xrand"
)

func TestGenerateRatesAndOrder(t *testing.T) {
	rng := xrand.New(1)
	events := Generate(rng, 2*time.Second, PaperGaussian(1000, 500, 100)...)
	if len(events) != 2*(1000+500+100) {
		t.Fatalf("generated %d events", len(events))
	}
	counts := map[string]int{}
	for i, e := range events {
		counts[e.Stratum]++
		if i > 0 && e.Time.Before(events[i-1].Time) {
			t.Fatal("events out of time order")
		}
	}
	if counts["A"] != 2000 || counts["B"] != 1000 || counts["C"] != 200 {
		t.Errorf("per-stream counts = %v", counts)
	}
}

func TestGenerateZeroRateSkipped(t *testing.T) {
	rng := xrand.New(2)
	events := Generate(rng, time.Second, Substream{Name: "x", Dist: Gaussian{Mu: 1, Sigma: 0}, Rate: 0})
	if len(events) != 0 {
		t.Errorf("zero-rate sub-stream generated %d events", len(events))
	}
}

func TestPaperGaussianMoments(t *testing.T) {
	rng := xrand.New(3)
	events := Generate(rng, 10*time.Second, PaperGaussian(3000, 3000, 3000)...)
	sums := map[string]float64{}
	counts := map[string]float64{}
	for _, e := range events {
		sums[e.Stratum] += e.Value
		counts[e.Stratum]++
	}
	wants := map[string]float64{"A": 10, "B": 1000, "C": 10000}
	for s, want := range wants {
		mean := sums[s] / counts[s]
		if math.Abs(mean-want)/want > 0.05 {
			t.Errorf("sub-stream %s mean = %v, want ≈%v", s, mean, want)
		}
	}
}

func TestPaperPoissonMoments(t *testing.T) {
	rng := xrand.New(4)
	events := Generate(rng, 3*time.Second,
		Substream{Name: "A", Dist: Poisson{Lambda: 10}, Rate: 2000},
		Substream{Name: "C", Dist: Poisson{Lambda: 1e8}, Rate: 200})
	sums := map[string]float64{}
	counts := map[string]float64{}
	for _, e := range events {
		sums[e.Stratum] += e.Value
		counts[e.Stratum]++
	}
	if mean := sums["A"] / counts["A"]; math.Abs(mean-10) > 0.5 {
		t.Errorf("Poisson A mean = %v", mean)
	}
	if mean := sums["C"] / counts["C"]; math.Abs(mean-1e8)/1e8 > 0.001 {
		t.Errorf("Poisson C mean = %v", mean)
	}
}

func TestSkewGaussianProportions(t *testing.T) {
	rng := xrand.New(5)
	events := Generate(rng, 5*time.Second, SkewGaussian(10000)...)
	counts := map[string]float64{}
	for _, e := range events {
		counts[e.Stratum]++
	}
	total := counts["A"] + counts["B"] + counts["C"]
	if share := counts["A"] / total; math.Abs(share-0.80) > 0.01 {
		t.Errorf("A share = %v, want 0.80", share)
	}
	if share := counts["C"] / total; math.Abs(share-0.01) > 0.005 {
		t.Errorf("C share = %v, want 0.01", share)
	}
}

func TestSkewPoissonRareStratumPresent(t *testing.T) {
	rng := xrand.New(6)
	events := Generate(rng, 10*time.Second, SkewPoisson(10000)...)
	counts := map[string]int{}
	for _, e := range events {
		counts[e.Stratum]++
	}
	if counts["C"] == 0 {
		t.Error("rare sub-stream C absent — skew generator must keep it alive")
	}
	if counts["C"] >= counts["B"]/100 {
		t.Errorf("C not rare enough: %v vs B %v", counts["C"], counts["B"])
	}
}

func TestNetFlowMixAndSizes(t *testing.T) {
	rng := xrand.New(7)
	events := NetFlowEvents(rng, 200000, 10*time.Second)
	if len(events) != 200000 {
		t.Fatalf("generated %d", len(events))
	}
	counts := map[string]float64{}
	sums := map[string]float64{}
	for i, e := range events {
		counts[e.Stratum]++
		sums[e.Stratum] += e.Value
		if e.Value <= 0 {
			t.Fatalf("non-positive flow size %v", e.Value)
		}
		if i > 0 && e.Time.Before(events[i-1].Time) {
			t.Fatal("netflow events out of order")
		}
	}
	total := float64(len(events))
	if share := counts["tcp"] / total; math.Abs(share-0.623) > 0.01 {
		t.Errorf("tcp share = %v", share)
	}
	if share := counts["icmp"] / total; math.Abs(share-0.015) > 0.005 {
		t.Errorf("icmp share = %v", share)
	}
	// TCP mean flow size must dominate ICMP's.
	if sums["tcp"]/counts["tcp"] <= sums["icmp"]/counts["icmp"] {
		t.Error("tcp flows should be larger than icmp flows on average")
	}
}

func TestNetFlowEmpty(t *testing.T) {
	if got := NetFlowEvents(xrand.New(1), 0, time.Second); got != nil {
		t.Errorf("n=0 produced %d events", len(got))
	}
}

func TestTaxiBoroughSkewAndDistances(t *testing.T) {
	rng := xrand.New(8)
	events := TaxiEvents(rng, 300000, 10*time.Second)
	counts := map[string]float64{}
	sums := map[string]float64{}
	for _, e := range events {
		counts[e.Stratum]++
		sums[e.Stratum] += e.Value
		if e.Value < 0.1 {
			t.Fatalf("trip distance %v below floor", e.Value)
		}
	}
	total := float64(len(events))
	if share := counts["manhattan"] / total; share < 0.85 {
		t.Errorf("manhattan share = %v, want ≈0.878", share)
	}
	if counts["ewr"] == 0 {
		t.Error("rare borough ewr absent")
	}
	// EWR (Newark) runs must be much longer than Manhattan hops.
	if sums["ewr"]/counts["ewr"] < 3*(sums["manhattan"]/counts["manhattan"]) {
		t.Error("ewr trips should be far longer than manhattan trips")
	}
}

func TestUniformAndLogNormal(t *testing.T) {
	rng := xrand.New(9)
	u := Uniform{Lo: 5, Hi: 10}
	for i := 0; i < 1000; i++ {
		v := u.Sample(rng)
		if v < 5 || v >= 10 {
			t.Fatalf("uniform out of range: %v", v)
		}
	}
	ln := LogNormal{Mu: 0, Sigma: 1}
	for i := 0; i < 1000; i++ {
		if ln.Sample(rng) <= 0 {
			t.Fatal("lognormal produced non-positive value")
		}
	}
	// Overflow guard.
	big := LogNormal{Mu: 1000, Sigma: 0}
	if v := big.Sample(rng); math.IsInf(v, 1) {
		t.Error("lognormal overflowed to +Inf")
	}
}

func TestReplayerIntoBroker(t *testing.T) {
	b := broker.New()
	if err := b.CreateTopic("in", 2); err != nil {
		t.Fatal(err)
	}
	events := NetFlowEvents(xrand.New(10), 1000, time.Second)
	r := &Replayer{ItemsPerMessage: 200}
	n, err := r.Replay(context.Background(), b, "in", events)
	if err != nil || n != 1000 {
		t.Fatalf("Replay = %d, %v", n, err)
	}
	var total int64
	for p := 0; p < 2; p++ {
		hwm, _ := b.HighWatermark("in", p)
		total += hwm
	}
	if total != 1000 {
		t.Errorf("broker holds %d records", total)
	}
}

func TestReplayerPacing(t *testing.T) {
	b := broker.New()
	_ = b.CreateTopic("in", 1)
	events := make([]stream.Event, 30)
	for i := range events {
		events[i] = stream.Event{Stratum: "s", Value: 1, Time: Epoch}
	}
	r := &Replayer{MessagesPerSecond: 1000, ItemsPerMessage: 10}
	start := time.Now()
	if _, err := r.Replay(context.Background(), b, "in", events); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 2*time.Millisecond {
		t.Errorf("pacing too fast: 3 messages at 1000 msg/s took %v", elapsed)
	}
}

func TestReplayerCancellation(t *testing.T) {
	b := broker.New()
	_ = b.CreateTopic("in", 1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	events := make([]stream.Event, 100)
	r := &Replayer{MessagesPerSecond: 10, ItemsPerMessage: 10}
	if _, err := r.Replay(ctx, b, "in", events); err == nil {
		t.Error("cancelled replay should return an error")
	}
}
