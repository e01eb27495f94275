package broker

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"streamapprox/internal/broker/storage"
	"streamapprox/internal/faults"
	"streamapprox/internal/stream"
)

func recs(key string, n int) []Record {
	out := make([]Record, n)
	base := time.Date(2017, 12, 11, 0, 0, 0, 0, time.UTC)
	for i := range out {
		out[i] = Record{Key: key, Value: float64(i), Time: base.Add(time.Duration(i) * time.Millisecond)}
	}
	return out
}

func TestCreateTopic(t *testing.T) {
	b := New()
	if err := b.CreateTopic("in", 4); err != nil {
		t.Fatal(err)
	}
	if err := b.CreateTopic("in", 4); !errors.Is(err, ErrTopicExists) {
		t.Errorf("duplicate create: %v", err)
	}
	n, err := b.Partitions("in")
	if err != nil || n != 4 {
		t.Errorf("Partitions = %d, %v", n, err)
	}
	if _, err := b.Partitions("nope"); !errors.Is(err, ErrUnknownTopic) {
		t.Errorf("unknown topic: %v", err)
	}
	if got := b.topicNames(); len(got) != 1 || got[0] != "in" {
		t.Errorf("Topics = %v", got)
	}
}

func TestCreateTopicClampsPartitions(t *testing.T) {
	b := New()
	if err := b.CreateTopic("t", 0); err != nil {
		t.Fatal(err)
	}
	if n, _ := b.Partitions("t"); n != 1 {
		t.Errorf("partitions = %d, want 1", n)
	}
}

func TestProduceFetchRoundTrip(t *testing.T) {
	b := New()
	if err := b.CreateTopic("in", 1); err != nil {
		t.Fatal(err)
	}
	n, err := b.Produce("in", recs("tcp", 10))
	if err != nil || n != 10 {
		t.Fatalf("Produce = %d, %v", n, err)
	}
	got, err := b.Fetch("in", 0, 0, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 10 {
		t.Fatalf("fetched %d", len(got))
	}
	for i, r := range got {
		if r.Offset != int64(i) {
			t.Errorf("record %d offset %d", i, r.Offset)
		}
		if r.Topic != "in" || r.Partition != 0 {
			t.Errorf("record metadata not stamped: %+v", r)
		}
	}
}

func TestFetchPagination(t *testing.T) {
	b := New()
	_ = b.CreateTopic("in", 1)
	_, _ = b.Produce("in", recs("k", 10))
	page1, err := b.Fetch("in", 0, 0, 4)
	if err != nil || len(page1) != 4 {
		t.Fatalf("page1 = %d, %v", len(page1), err)
	}
	page2, err := b.Fetch("in", 0, 4, 100)
	if err != nil || len(page2) != 6 {
		t.Fatalf("page2 = %d, %v", len(page2), err)
	}
	if page2[0].Offset != 4 {
		t.Errorf("page2 starts at %d", page2[0].Offset)
	}
}

func TestFetchErrors(t *testing.T) {
	b := New()
	_ = b.CreateTopic("in", 2)
	if _, err := b.Fetch("in", 5, 0, 10); !errors.Is(err, ErrBadPartition) {
		t.Errorf("bad partition: %v", err)
	}
	if _, err := b.Fetch("in", 0, 99, 10); !errors.Is(err, ErrOffsetOutOfRange) {
		t.Errorf("bad offset: %v", err)
	}
	if _, err := b.Fetch("in", 0, -1, 10); !errors.Is(err, ErrOffsetOutOfRange) {
		t.Errorf("negative offset: %v", err)
	}
}

func TestKeyedPartitioningIsStable(t *testing.T) {
	b := New()
	_ = b.CreateTopic("in", 4)
	_, _ = b.Produce("in", recs("tcp", 50))
	_, _ = b.Produce("in", recs("udp", 50))
	// All records with the same key must land in one partition.
	perPartKeys := make([]map[string]bool, 4)
	total := 0
	for p := 0; p < 4; p++ {
		perPartKeys[p] = map[string]bool{}
		got, err := b.Fetch("in", p, 0, 1000)
		if err != nil {
			t.Fatal(err)
		}
		total += len(got)
		for _, r := range got {
			perPartKeys[p][r.Key] = true
		}
	}
	if total != 100 {
		t.Fatalf("total fetched %d", total)
	}
	seen := map[string]int{}
	for _, keys := range perPartKeys {
		for k := range keys {
			seen[k]++
		}
	}
	for k, n := range seen {
		if n != 1 {
			t.Errorf("key %q spread over %d partitions", k, n)
		}
	}
}

func TestRoundRobinForEmptyKey(t *testing.T) {
	b := New()
	_ = b.CreateTopic("in", 3)
	_, _ = b.Produce("in", recs("", 9))
	for p := 0; p < 3; p++ {
		got, _ := b.Fetch("in", p, 0, 100)
		if len(got) != 3 {
			t.Errorf("partition %d has %d records, want 3 (round robin)", p, len(got))
		}
	}
}

func TestHighWatermark(t *testing.T) {
	b := New()
	_ = b.CreateTopic("in", 1)
	if hwm, _ := b.HighWatermark("in", 0); hwm != 0 {
		t.Errorf("empty hwm = %d", hwm)
	}
	_, _ = b.Produce("in", recs("k", 7))
	if hwm, _ := b.HighWatermark("in", 0); hwm != 7 {
		t.Errorf("hwm = %d, want 7", hwm)
	}
}

func TestClosedBroker(t *testing.T) {
	b := New()
	_ = b.CreateTopic("in", 1)
	b.Close()
	if err := b.CreateTopic("x", 1); !errors.Is(err, ErrClosed) {
		t.Errorf("create on closed: %v", err)
	}
	if _, err := b.Produce("in", recs("k", 1)); !errors.Is(err, ErrClosed) {
		t.Errorf("produce on closed: %v", err)
	}
}

// partFS sends the files under one directory through a second
// filesystem — how a test breaks a single partition's disk.
type partFS struct {
	storage.FS
	dir string
	bad storage.FS
}

func (f partFS) OpenFile(name string, flag int, perm os.FileMode) (storage.File, error) {
	if strings.HasPrefix(name, f.dir) {
		return f.bad.OpenFile(name, flag, perm)
	}
	return f.FS.OpenFile(name, flag, perm)
}

// TestProducePartialAppendReported: when one partition's append fails,
// Produce reports how many records DID land (the partitions appended
// before it), not zero — a caller that retried the whole batch on
// "0, err" would duplicate them. The failed partition rolls back whole.
func TestProducePartialAppendReported(t *testing.T) {
	const parts = 3
	dir := t.TempDir()
	disk := faults.NewDisk(nil)
	b, err := Open(StorageConfig{
		Dir: dir, Policy: storage.SyncNone,
		FS: partFS{FS: storage.OSFS, dir: filepath.Join(dir, "in", "1") + string(filepath.Separator), bad: disk},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if err := b.CreateTopic("in", parts); err != nil {
		t.Fatal(err)
	}
	// 5 records for partition 0, 4 for 1, 3 for 2.
	keys := keysByPartition(&ClusterClient{}, parts)
	var batch []Record
	for p, key := range keys {
		for i := 0; i < 5-p; i++ {
			batch = append(batch, Record{Key: key, Value: float64(len(batch))})
		}
	}
	if n, err := b.Produce("in", batch); err != nil || n != len(batch) {
		t.Fatalf("healthy produce = %d, %v", n, err)
	}
	disk.Set(faults.DiskFaults{FailWrites: true, TornBytes: 9})
	n, err := b.Produce("in", batch)
	if !errors.Is(err, faults.ErrNoSpace) {
		t.Fatalf("produce onto a full disk: err = %v, want ENOSPC", err)
	}
	disk.Set(faults.DiskFaults{})
	// Appends go in partition order: 0 landed (every record now stored
	// twice), 1 failed and rolled back, 2 was never tried.
	landed := 0
	for p, copies := range []int{2, 1, 1} {
		hwm, _ := b.HighWatermark("in", p)
		landed += int(hwm) - (5 - p)
		got, err := b.Fetch("in", p, 0, 100)
		if err != nil || int64(len(got)) != hwm {
			t.Fatalf("partition %d: fetched %d of %d records, %v", p, len(got), hwm, err)
		}
		seen := map[float64]int{}
		for _, r := range got {
			if r.Key != keys[p] {
				t.Errorf("partition %d holds key %q", p, r.Key)
			}
			seen[r.Value]++
		}
		if len(seen) != 5-p {
			t.Errorf("partition %d holds %d distinct records, want %d", p, len(seen), 5-p)
		}
		for v, c := range seen {
			if c != copies {
				t.Errorf("partition %d: record %v stored %d times, want %d", p, v, c, copies)
			}
		}
	}
	if n != landed || n != 5 {
		t.Errorf("Produce returned n = %d; %d records landed (want 5: partition 0's share)", n, landed)
	}
}

func TestConcurrentProducers(t *testing.T) {
	b := New()
	_ = b.CreateTopic("in", 4)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				if _, err := b.Produce("in", recs("key", 5)); err != nil {
					t.Errorf("produce: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	var total int64
	for p := 0; p < 4; p++ {
		hwm, _ := b.HighWatermark("in", p)
		total += hwm
	}
	if total != 8*100*5 {
		t.Errorf("total records %d, want %d", total, 8*100*5)
	}
}

func TestEventConversion(t *testing.T) {
	e := stream.Event{Stratum: "tcp", Value: 42, Time: time.Unix(100, 0)}
	r := FromEvent(e)
	if r.Key != "tcp" || r.Value != 42 || !r.Time.Equal(e.Time) {
		t.Errorf("FromEvent = %+v", r)
	}
}

func TestProduceFromEvents(t *testing.T) {
	b := New()
	_ = b.CreateTopic("in", 2)
	events := make([]stream.Event, 100)
	base := time.Date(2017, 12, 11, 0, 0, 0, 0, time.UTC)
	for i := range events {
		events[i] = stream.Event{Stratum: "s", Value: float64(i), Time: base.Add(time.Duration(i) * time.Millisecond)}
	}
	recs := make([]Record, len(events))
	for i, e := range events {
		recs[i] = FromEvent(e)
	}
	if n, err := b.Produce("in", recs); err != nil || n != 100 {
		t.Fatalf("Produce = %d, %v", n, err)
	}
	// One key, so one partition holds all 100, in produce order.
	total := 0
	for p := 0; p < 2; p++ {
		got, err := b.Fetch("in", p, 0, 1000)
		if err != nil {
			t.Fatal(err)
		}
		total += len(got)
		for i, r := range got {
			if r.Key != "s" || r.Value != float64(i) || !r.Time.Equal(events[i].Time) {
				t.Fatalf("record %d = %+v, want event %+v", i, r, events[i])
			}
		}
	}
	if total != 100 {
		t.Fatalf("fetched %d records, want 100", total)
	}
}
