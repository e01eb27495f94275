package broker

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"streamapprox/internal/stream"
)

// A consumer here is any reader of a partition through FetchBatch: it
// keeps its own offset, as the serving tier's partition loop does.

// fetchRound fetches up to max records of in/0 at offset from cl into a
// fresh pooled batch; the caller releases it.
func fetchRound(t *testing.T, cl Cluster, offset int64, max int) *stream.EventBatch {
	t.Helper()
	b := stream.GetEventBatch()
	if _, err := cl.FetchBatch("in", 0, offset, max, b); err != nil {
		t.Fatalf("fetch at %d: %v", offset, err)
	}
	return b
}

// drainValues reads in/0 from offset until a round comes back empty,
// counting each record's value into seen, and returns the offset reached.
func drainValues(t *testing.T, cl Cluster, offset int64, seen map[float64]int) int64 {
	t.Helper()
	for {
		b := fetchRound(t, cl, offset, 4096)
		n := b.Len()
		for _, v := range b.Values {
			seen[v]++
		}
		b.Release()
		if n == 0 {
			return offset
		}
		offset += int64(n)
	}
}

// TestConsumerConstructedMidBatch: offsets count records, not frames, so
// a consumer positioned inside a produce batch starts at exactly that
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
		offset := int64(4)
		for _, round := range []struct {
			max  int
			want []float64
		}{{3, []float64{4, 5, 6}}, {100, []float64{7, 8, 9, 10, 11, 12, 13, 14, 15, 16}}} {
			got := fetchRound(t, from, offset, round.max)
			if got.Base != offset || !reflect.DeepEqual(got.Values, round.want) {
				t.Fatalf("%s: fetch of %d at %d = %v at %d; want %v", name, round.max, offset, got.Values, got.Base, round.want)
			}
			offset += int64(got.Len())
			got.Release()
		}
	}
}

// TestConsumerErrorOnClosedBroker: a fetch from a closed broker fails
// with ErrClosed and fills nothing, and one of a missing partition fails
// with ErrBadPartition.
func TestConsumerErrorOnClosedBroker(t *testing.T) {
	b := New()
	_ = b.CreateTopic("in", 1)
	_, _ = b.Produce("in", recs("a", 10))
	b.Close()
	eb := stream.GetEventBatch()
	defer eb.Release()
	if n, err := b.FetchBatch("in", 0, 0, 10, eb); !errors.Is(err, ErrClosed) || n != 0 || eb.Len() != 0 {
		t.Errorf("fetch from a closed broker = %d records, %v; want 0, ErrClosed", n, err)
	}
	b = New()
	_ = b.CreateTopic("in", 1)
	if _, err := b.FetchBatch("in", 3, 0, 10, eb); !errors.Is(err, ErrBadPartition) {
		t.Errorf("fetch of a missing partition: %v", err)
	}
}

// TestConsumerTCPMatchesInProcess: a consumer over TCP reads the very
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
		for offset := int64(0); ; {
			eb := fetchRound(t, cl, offset, 400)
			if eb.Len() == 0 {
				eb.Release()
				return out
			}
			offset += int64(eb.Len())
			eb.SortByTime()
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
