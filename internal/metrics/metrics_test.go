package metrics

import (
	"math"
	"testing"
	"time"
)

func TestThroughput(t *testing.T) {
	if got := Throughput(1000, time.Second); got != 1000 {
		t.Errorf("Throughput = %v", got)
	}
	if got := Throughput(500, 250*time.Millisecond); got != 2000 {
		t.Errorf("Throughput = %v", got)
	}
	if got := Throughput(100, 0); got != 0 {
		t.Errorf("zero elapsed should yield 0, got %v", got)
	}
	if got := Throughput(100, -time.Second); got != 0 {
		t.Errorf("negative elapsed should yield 0, got %v", got)
	}
}

func TestStopwatch(t *testing.T) {
	sw := Start()
	sw.Add(100)
	sw.Add(50)
	if sw.Items() != 150 {
		t.Errorf("Items = %d", sw.Items())
	}
	time.Sleep(time.Millisecond)
	if sw.Elapsed() <= 0 {
		t.Error("Elapsed not positive")
	}
	if sw.Throughput() <= 0 {
		t.Error("Throughput not positive")
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5})
	if s.Count != 5 || s.Mean != 3 || s.Min != 1 || s.Max != 5 {
		t.Errorf("Series = %+v", s)
	}
	if s.P50 != 3 {
		t.Errorf("P50 = %v", s.P50)
	}
	if math.Abs(s.Stddev-math.Sqrt(2.5)) > 1e-12 {
		t.Errorf("Stddev = %v", s.Stddev)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	if s := Summarize(nil); s.Count != 0 || s.Mean != 0 {
		t.Errorf("empty series = %+v", s)
	}
}

func TestSummarizeSingle(t *testing.T) {
	s := Summarize([]float64{7})
	if s.Count != 1 || s.Mean != 7 || s.Stddev != 0 || s.P95 != 7 {
		t.Errorf("single-value series = %+v", s)
	}
}

func TestPercentileP95(t *testing.T) {
	vals := make([]float64, 100)
	for i := range vals {
		vals[i] = float64(i + 1)
	}
	s := Summarize(vals)
	if s.P95 != 95 {
		t.Errorf("P95 = %v", s.P95)
	}
}
