package workload

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"os"
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
	if events := Generate(rng, time.Second); len(events) != 0 {
		t.Errorf("no sub-streams generated %d events", len(events))
	}
}

// Events of equal time come in sub-stream order, whichever sub-stream
// is denser or drew first.
func TestGenerateTiesGoToLowerSubstream(t *testing.T) {
	events := Generate(xrand.New(3), time.Second,
		Substream{Name: "a", Dist: Uniform{Lo: 0, Hi: 1}, Rate: 2},
		Substream{Name: "z", Dist: Uniform{Lo: 0, Hi: 1}, Rate: 0},
		Substream{Name: "b", Dist: Uniform{Lo: 0, Hi: 1}, Rate: 4},
		Substream{Name: "c", Dist: Uniform{Lo: 0, Hi: 1}, Rate: 2})
	got := ""
	for _, e := range events {
		got += fmt.Sprintf("%s@%v ", e.Stratum, e.Time.Sub(Epoch))
	}
	want := "a@0s b@0s c@0s b@250ms a@500ms b@500ms c@500ms b@750ms "
	if got != want {
		t.Errorf("generated\n%s\nwant\n%s", got, want)
	}
}

// generateParentFile holds, for each case of generateCases, the number of
// events Generate made at commit 4764a5d — which drew each sub-stream as
// event rows and merged them by time.Time — and an FNV-64a digest of
// their (stratum, value bits, time nanos). Setting GENERATE_PARENT_OUT to
// a path makes the test write what Generate makes there instead of
// checking it.
const generateParentFile = "testdata/generate_parent.json"

type generateCase struct {
	seed     uint64
	duration time.Duration
	subs     []Substream
}

var generateCases = map[string]generateCase{
	"skew-gaussian-100000-1s-seed1": {1, time.Second, SkewGaussian(100000)},
	"skew-gaussian-100000-1s-seed9": {9, time.Second, SkewGaussian(100000)},
	"paper-gaussian-3000x3-2s":      {2, 2 * time.Second, PaperGaussian(3000, 3000, 3000)},
	"skew-poisson-6000-15s":         {4, 15 * time.Second, SkewPoisson(6000)},
	// A zero-rate sub-stream between others, and rates whose times tie.
	"ties-3-0-7-3-7-2.5s": {5, 2500 * time.Millisecond, []Substream{
		{Name: "a", Dist: Gaussian{Mu: 1, Sigma: 1}, Rate: 3},
		{Name: "z", Dist: Gaussian{Mu: 2, Sigma: 1}, Rate: 0},
		{Name: "b", Dist: Poisson{Lambda: 30}, Rate: 7},
		{Name: "c", Dist: Uniform{Lo: 0, Hi: 1}, Rate: 3},
		{Name: "d", Dist: LogNormal{Mu: 0, Sigma: 1}, Rate: 7},
	}},
}

type generateDigest struct {
	Events int    `json:"events"`
	FNV64a string `json:"fnv64a"`
}

func digestEvents(events []stream.Event) generateDigest {
	h := fnv.New64a()
	var buf [17]byte
	for _, e := range events {
		buf[0] = byte(len(e.Stratum))
		h.Write(buf[:1])
		h.Write([]byte(e.Stratum))
		binary.LittleEndian.PutUint64(buf[1:], math.Float64bits(e.Value))
		binary.LittleEndian.PutUint64(buf[9:], uint64(e.Time.UnixNano()))
		h.Write(buf[1:])
	}
	return generateDigest{Events: len(events), FNV64a: fmt.Sprintf("%016x", h.Sum64())}
}

// Generate makes, event for event, what the parent made.
func TestGenerateMatchesParent(t *testing.T) {
	got := map[string]generateDigest{}
	for name, c := range generateCases {
		got[name] = digestEvents(Generate(xrand.New(c.seed), c.duration, c.subs...))
	}
	if out := os.Getenv("GENERATE_PARENT_OUT"); out != "" {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(generateParentFile)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]generateDigest
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(generateCases) {
		t.Fatalf("fixture has %d cases, want %d", len(want), len(generateCases))
	}
	for name, w := range want {
		if g, ok := got[name]; !ok || g != w {
			t.Errorf("%s: generated %+v, parent %+v", name, g, w)
		}
	}
}

// One second of the §5.7 Gaussian mix, as bench's lib-skew pool draws it.
func BenchmarkGenerate(b *testing.B) {
	subs := SkewGaussian(100000)
	b.ReportAllocs()
	for b.Loop() {
		Generate(xrand.New(1), time.Second, subs...)
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
