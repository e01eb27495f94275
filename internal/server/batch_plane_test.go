package server

import (
	"strconv"
	"testing"
	"time"

	"streamapprox/internal/broker"
	"streamapprox/internal/metrics"
)

// TestBatchPlaneSharesOneBatchAcrossQueries is the vectorized plane's
// aliasing test: the partition loop applies ONE pooled columnar batch to
// eight sampling groups in turn, then Releases it to the pool for its
// next fetch. A write to the shared batch, or a pool return before the
// last group is done with it, shows up as diverging per-window item
// counts (a recycled batch overwritten mid-read).
func TestBatchPlaneSharesOneBatchAcrossQueries(t *testing.T) {
	bk := broker.New()
	if err := bk.CreateTopic("in", 1); err != nil {
		t.Fatal(err)
	}
	events := makeEvents(41, 20000)
	if _, err := produceEvents(bk, "in", events); err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Cluster: bk, Topic: "in", PollBackoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	const queries = 8
	var jobs []*job
	for i := 0; i < queries; i++ {
		// A fraction each: eight sampling groups.
		id, err := s.Register(Spec{Kind: "sum", Window: 2 * time.Second, Slide: time.Second,
			Fraction: 0.3 + 0.05*float64(i), Seed: uint64(i + 1)})
		if err != nil {
			t.Fatal(err)
		}
		j, _ := s.job(id)
		jobs = append(jobs, j)
	}
	for _, j := range jobs {
		waitJobRecords(t, j, int64(len(events)), 30*time.Second)
	}
	time.Sleep(50 * time.Millisecond)
	for _, j := range jobs {
		if n := jobRecords(j); n != int64(len(events)) {
			t.Fatalf("query %s consumed %d of %d records", j.id, n, len(events))
		}
	}

	// Every query read the same shared batches, so their per-window item
	// counts must agree exactly.
	items := map[time.Time]int64{}
	for _, r := range jobs[0].resultsSince(-1) {
		items[r.Start] = r.Items
	}
	for _, j := range jobs[1:] {
		for _, r := range j.resultsSince(-1) {
			if want, ok := items[r.Start]; ok && r.Items != want {
				t.Errorf("window %v: query %s saw %d items, query %s saw %d",
					r.Start, j.id, r.Items, jobs[0].id, want)
			}
		}
	}

	// The run must actually have used the columnar path: the in-process
	// broker implements BatchFetcher, so the batch-shape histogram has
	// observations and accounts for the full record count.
	h := s.reg.Histogram("saproxd_ingest_batch_records",
		"records per columnar batch fanned out by the partition loop",
		metrics.Labels{"partition": strconv.Itoa(0)})
	if h.Count() == 0 {
		t.Fatal("batch histogram empty: plane did not take the columnar path")
	}
	if got := int64(h.Sum()); got != int64(len(events)) {
		t.Errorf("batch histogram accounted %d records, want %d", got, len(events))
	}
}
