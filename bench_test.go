// Package streamapprox's benchmark suite regenerates every figure of the
// paper's evaluation (one benchmark per figure/panel; `saprox list`
// prints the ids) plus the ablations. Run with
//
//	go test -bench=. -benchmem
//
// Each benchmark executes the figure's full parameter sweep at a reduced
// dataset scale (BENCH_SCALE, default 0.1); `go run ./cmd/saprox run
// <id> -scale 1` reproduces the full-size sweep and prints the rows.
// Benchmarks report items/s over the whole sweep so regressions in any
// system on the figure are visible.
package streamapprox

import (
	"fmt"
	"os"
	"slices"
	"strconv"
	"testing"
	"time"

	"streamapprox/internal/experiment"
	"streamapprox/internal/workload"
	"streamapprox/internal/xrand"
)

// benchScale reads the dataset scale for benchmarks from BENCH_SCALE.
func benchScale() float64 {
	if s := os.Getenv("BENCH_SCALE"); s != "" {
		if v, err := strconv.ParseFloat(s, 64); err == nil && v > 0 {
			return v
		}
	}
	return 0.1
}

// benchFigure runs one figure sweep per iteration.
func benchFigure(b *testing.B, id string) {
	b.Helper()
	fn, ok := experiment.All()[id]
	if !ok {
		b.Fatalf("unknown figure %q", id)
	}
	opts := experiment.Options{Scale: benchScale(), Seed: 42, Workers: 4}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		table, err := fn(opts)
		if err != nil {
			b.Fatal(err)
		}
		if len(table.Rows) == 0 {
			b.Fatalf("%s produced no rows", id)
		}
	}
}

// Microbenchmarks (§5).

func BenchmarkFig4aThroughputVsFraction(b *testing.B)            { benchFigure(b, "fig4a") }
func BenchmarkFig4bAccuracyVsFraction(b *testing.B)              { benchFigure(b, "fig4b") }
func BenchmarkFig4cThroughputVsBatchInterval(b *testing.B)       { benchFigure(b, "fig4c") }
func BenchmarkFig5aAccuracyVsArrivalRates(b *testing.B)          { benchFigure(b, "fig5a") }
func BenchmarkFig5bcThroughputAccuracyVsWindowSize(b *testing.B) { benchFigure(b, "fig5bc") }
func BenchmarkFig6aScalability(b *testing.B)                     { benchFigure(b, "fig6a") }
func BenchmarkFig6bThroughputVsAccuracyLoss(b *testing.B)        { benchFigure(b, "fig6b") }
func BenchmarkFig6cPoissonSkewAccuracy(b *testing.B)             { benchFigure(b, "fig6c") }
func BenchmarkFig7MeanTimeSeries(b *testing.B)                   { benchFigure(b, "fig7") }

// Case studies (§6).

func BenchmarkFig8aNetflowThroughput(b *testing.B)       { benchFigure(b, "fig8a") }
func BenchmarkFig8bNetflowAccuracy(b *testing.B)         { benchFigure(b, "fig8b") }
func BenchmarkFig8cNetflowThroughputAtLoss(b *testing.B) { benchFigure(b, "fig8c") }
func BenchmarkFig9aTaxiThroughput(b *testing.B)          { benchFigure(b, "fig9a") }
func BenchmarkFig9bTaxiAccuracy(b *testing.B)            { benchFigure(b, "fig9b") }
func BenchmarkFig9cTaxiThroughputAtLoss(b *testing.B)    { benchFigure(b, "fig9c") }
func BenchmarkFig10Latency(b *testing.B)                 { benchFigure(b, "fig10") }

// Ablations.

func BenchmarkAblationSTSBarrier(b *testing.B)       { benchFigure(b, "abl-sync") }
func BenchmarkAblationWeighting(b *testing.B)        { benchFigure(b, "abl-weights") }
func BenchmarkAblationDistributedOASRS(b *testing.B) { benchFigure(b, "abl-dist") }
func BenchmarkAblationReservoirSkip(b *testing.B)    { benchFigure(b, "abl-skip") }

// End-to-end public API benchmarks.

// BenchmarkRunOASRSBatched is Run on its batched engine; the pipelined
// engine's is internal/core's BenchmarkRunOASRSPipelined.
func BenchmarkRunOASRSBatched(b *testing.B) {
	events := benchEvents(b)
	cfg := Config{Sampler: OASRS, Fraction: 0.6, Seed: 1}
	b.ReportAllocs()
	b.ResetTimer()
	var items int64
	for i := 0; i < b.N; i++ {
		rep, err := Run(cfg, events)
		if err != nil {
			b.Fatal(err)
		}
		items += rep.Items
	}
	b.StopTimer()
	if elapsed := b.Elapsed().Seconds(); elapsed > 0 {
		b.ReportMetric(float64(items)/elapsed, "items/s")
	}
}

func benchEvents(b *testing.B) []Event {
	b.Helper()
	return testEvents(b, 10)
}

func BenchmarkSessionPush(b *testing.B) {
	s := NewSession(SessionConfig{Fraction: 0.4, Seed: 1})
	events := benchEvents(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.Push(events[i%len(events)])
	}
}

// BenchmarkSessionPushSkew is lib-skew's kernel without bench/: §5.7's
// 80/19/1 Gaussian skew mix at 100 000 items/s in one columnar batch,
// one sum query over 10 s windows sliding by 5 s, fed through PushBatch
// in 4096-row ranges, each followed by Poll. A pass over the batch ends
// by shifting the next pass's times on by the batch's span, so the
// stream runs on; the shift is one add per record, rewritten range by
// range as lib-skew does. f=0.1 is lib-skew's fraction; f=1 is the
// native lane, the same session keeping every record.
func BenchmarkSessionPushSkew(b *testing.B) {
	const span, rows = 10 * time.Second, 4096
	batch := NewEventBatch()
	defer batch.Release()
	for _, e := range workload.Generate(xrand.New(1), span, workload.SkewGaussian(100000)...) {
		batch.AppendEvent(e)
	}
	base := slices.Clone(batch.Times)
	for _, fraction := range []float64{0.1, 1} {
		b.Run(fmt.Sprintf("f=%g", fraction), func(b *testing.B) {
			s := NewSession(SessionConfig{
				Query: Sum, WindowSize: 10 * time.Second, WindowSlide: 5 * time.Second, Fraction: fraction, Seed: 1,
			})
			n, from, shift, records := batch.Len(), 0, int64(0), 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				to := min(from+rows, n)
				for j, t := range base[from:to] {
					batch.Times[from+j] = t + shift
				}
				if err := s.PushBatch(batch, from, to); err != nil {
					b.Fatal(err)
				}
				s.Poll()
				records += to - from
				if from = to; from == n {
					from, shift = 0, shift+int64(span)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(records), "ns/record")
		})
	}
}

// BenchmarkSessionWindows is the pane path's micro-number beside
// bench/: one op pushes 40 one-second slides of 2000 events (three
// strata) through PushBatch and polls the windows, for the three
// summary shapes (moments only, groups, bucket counts) at two
// window/slide ratios and two sampling fractions.
func BenchmarkSessionWindows(b *testing.B) {
	const segments, perSegment = 40, 2000
	batch := NewEventBatch()
	defer batch.Release()
	ids := []int32{batch.Intern("a"), batch.Intern("b"), batch.Intern("c")}
	for i := 0; i < segments*perSegment; i++ {
		batch.Append(ids[i%3], float64(i%251), 0)
	}
	for _, q := range []struct {
		name string
		kind Query
	}{{"sum", Sum}, {"groupby-mean", GroupByMean}, {"histogram", Histogram}} {
		for _, ratio := range []int{2, 5} {
			for _, fraction := range []float64{0.1, 0.8} {
				b.Run(fmt.Sprintf("%s/ws%d/f%.0f", q.name, ratio, 100*fraction), func(b *testing.B) {
					s := NewSession(SessionConfig{
						Query: q.kind, WindowSize: time.Duration(ratio) * time.Second, WindowSlide: time.Second,
						Fraction: fraction, HistogramEdges: []float64{0, 50, 100, 150, 200, 256},
					})
					epoch := int64(1 << 60)
					windows := 0
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						for j := range batch.Times {
							batch.Times[j] = epoch + int64(j)*int64(time.Second)/perSegment
						}
						epoch += segments * int64(time.Second)
						if err := s.PushBatch(batch, 0, batch.Len()); err != nil {
							b.Fatal(err)
						}
						windows += len(s.Poll())
					}
					b.StopTimer()
					if windows == 0 {
						b.Fatal("no windows")
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*segments*perSegment), "ns/item")
				})
			}
		}
	}
}
