package broker

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"streamapprox/internal/stream"
)

// drainValues polls c until a round comes back empty, counting each
// record's value into seen, and returns the offset c has reached.
func drainValues(t *testing.T, c *Consumer, seen map[float64]int) int64 {
	t.Helper()
	for {
		b, err := c.PollBatch(4096)
		if err != nil {
			t.Fatalf("poll: %v", err)
		}
		if b == nil {
			return c.offset
		}
		for _, v := range b.Values {
			seen[v]++
		}
		b.Release()
	}
}

func TestConsumerPollBatch(t *testing.T) {
	b := New()
	_ = b.CreateTopic("in", 1)
	in := recs("a", 10)
	in[2].Time, in[7].Time = in[7].Time, in[2].Time // unordered within both rounds below
	in[5].Time = time.Time{}
	if _, err := b.Produce("in", in); err != nil {
		t.Fatal(err)
	}
	c := NewPartitionConsumer(b, "in", 0, -7) // negative reads as 0
	for _, round := range []struct {
		max, n int
		base   int64
	}{{8, 8, 0}, {100, 2, 8}} {
		got, err := c.PollBatch(round.max)
		if err != nil || got.Len() != round.n || got.Base != round.base {
			t.Fatalf("PollBatch(%d) = %d records at %d, %v; want %d at %d", round.max, got.Len(), got.Base, err, round.n, round.base)
		}
		if !got.TimeOrdered() {
			t.Fatalf("PollBatch(%d) not in event-time order: %v", round.max, got.Times)
		}
		got.Release()
	}
	if again, err := c.PollBatch(100); again != nil || err != nil {
		t.Fatalf("poll of a drained partition = %v, %v; want nil, nil", again, err)
	}
}

// TestConsumerConstructedMidBatch: offsets count records, not frames, so
// a reader positioned inside a produce batch starts at exactly that
// record, on the in-process path and over the wire alike.
func TestConsumerConstructedMidBatch(t *testing.T) {
	srv, cli := startServer(t)
	if err := cli.CreateTopic("in", 1); err != nil {
		t.Fatal(err)
	}
	for _, batch := range [][]Record{keylessRecs(0, 10), keylessRecs(10, 7)} {
		if _, err := srv.broker.Produce("in", batch); err != nil {
			t.Fatal(err)
		}
	}
	cc, err := DialCluster([]string{srv.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = cc.Close() }()
	for name, from := range map[string]Cluster{"broker": srv.broker, "routing client": cc} {
		c := NewPartitionConsumer(from, "in", 0, 4)
		for _, round := range []struct {
			max  int
			want []float64
		}{{3, []float64{4, 5, 6}}, {100, []float64{7, 8, 9, 10, 11, 12, 13, 14, 15, 16}}} {
			got, err := c.PollBatch(round.max)
			if err != nil || got.Base != int64(round.want[0]) || !reflect.DeepEqual(got.Values, round.want) {
				t.Fatalf("%s: PollBatch(%d) = %v at %d, %v; want %v", name, round.max, got.Values, got.Base, err, round.want)
			}
			got.Release()
		}
	}
}

// flakyCluster fails every third FetchBatch with a transient error.
type flakyCluster struct {
	Cluster
	n int
}

var errFlaky = errors.New("transient fetch failure")

func (f *flakyCluster) FetchBatch(topic string, partition int, offset int64, max int, b *stream.EventBatch) (int, error) {
	f.n++
	if f.n%3 == 0 {
		return 0, errFlaky
	}
	return f.Cluster.FetchBatch(topic, partition, offset, max, b)
}

// TestConsumerFailedFetchKeepsOffset: a failed fetch leaves the reader
// where it was, so the retry returns the round the failure would have —
// every record exactly once, in offset order, across the failures.
func TestConsumerFailedFetchKeepsOffset(t *testing.T) {
	b := New()
	_ = b.CreateTopic("in", 1)
	const total = 20000
	if _, err := b.Produce("in", recs("k", total)); err != nil {
		t.Fatal(err)
	}
	c := NewPartitionConsumer(&flakyCluster{Cluster: b}, "in", 0, 0)
	failures := 0
	for next := int64(0); next < total; {
		got, err := c.PollBatch(1000)
		if err != nil {
			if !errors.Is(err, errFlaky) || got != nil || c.offset != next {
				t.Fatalf("failed poll = %v, %v with the reader at %d; want nil, errFlaky, %d", got, err, c.offset, next)
			}
			failures++
			continue
		}
		if got.Base != next || got.Len() != 1000 || got.Values[0] != float64(next) {
			t.Fatalf("round after %d failures = %d records at %d (first value %v); want 1000 at %d",
				failures, got.Len(), got.Base, got.Values[0], next)
		}
		next += int64(got.Len())
		got.Release()
	}
	if failures == 0 {
		t.Fatal("no fetch failed; the test exercised nothing")
	}
}

func TestConsumerErrorOnClosedBroker(t *testing.T) {
	b := New()
	_ = b.CreateTopic("in", 1)
	_, _ = b.Produce("in", recs("a", 10))
	c := NewPartitionConsumer(b, "in", 0, 0)
	b.Close()
	if got, err := c.PollBatch(10); !errors.Is(err, ErrClosed) || got != nil || c.offset != 0 {
		t.Errorf("poll on a closed broker = %v, %v with the reader at %d; want nil, ErrClosed, 0", got, err, c.offset)
	}
	// A reader needs no broker call to exist, so a bad partition is the
	// first poll's error, not the constructor's.
	b = New()
	_ = b.CreateTopic("in", 1)
	if _, err := NewPartitionConsumer(b, "in", 3, 0).PollBatch(10); !errors.Is(err, ErrBadPartition) {
		t.Errorf("poll of a missing partition: %v", err)
	}
}

// TestConsumerTCPMatchesInProcess: a Consumer over TCP delivers the very
// batches one over the in-process broker does — columns, dictionary,
// base and order.
func TestConsumerTCPMatchesInProcess(t *testing.T) {
	b := New()
	_ = b.CreateTopic("in", 1)
	in := append(append(recs("tcp", 700), recs("", 300)...), recs("ключ", 500)...)
	in[10].Time = time.Time{}
	if _, err := b.Produce("in", in); err != nil {
		t.Fatal(err)
	}
	cli, err := DialCluster([]string{serveMember(t, b, ServerOptions{}).Addr()})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = cli.Close() }()

	type round struct {
		Strata []int32
		Values []float64
		Times  []int64
		Dict   []string
		Base   int64
	}
	readAll := func(cl Cluster) []round {
		var out []round
		c := NewPartitionConsumer(cl, "in", 0, 0)
		for {
			eb, err := c.PollBatch(400)
			if err != nil {
				t.Fatal(err)
			}
			if eb == nil {
				return out
			}
			out = append(out, round{
				append([]int32(nil), eb.Strata...), append([]float64(nil), eb.Values...),
				append([]int64(nil), eb.Times...), append([]string(nil), eb.Dict...), eb.Base,
			})
			eb.Release()
		}
	}
	want := readAll(b)
	if n := len(want); n != 4 || want[3].Base != 1200 {
		t.Fatalf("in-process read = %d rounds, want 4 ending at base 1200", n)
	}
	if want[0].Times[0] != stream.ZeroTimeNanos {
		t.Fatalf("zero-time record not sorted first: %v", want[0].Times[:3])
	}
	if got := readAll(cli); !reflect.DeepEqual(got, want) {
		t.Error("batches over TCP differ from the in-process read")
	}
}
