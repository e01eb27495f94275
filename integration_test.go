package streamapprox

import (
	"context"
	"math"
	"sync"
	"testing"
	"time"

	"streamapprox/internal/broker"
	"streamapprox/internal/stream"
	"streamapprox/internal/workload"
	"streamapprox/internal/xrand"
)

// member is a test's reader of a set of partitions: a positioned
// reader per owned partition, polled round by round, each
// round's batches merged into one time-ordered batch — the order a
// time-synchronized aggregator delivers and a Session expects.
type member struct {
	parts []int
	cons  []*broker.Consumer
	next  []int64 // offset each reader has reached
}

// newMember positions one reader per partition at start[partition]
// (0 when absent).
func newMember(cl broker.Cluster, parts []int, start map[int]int64) *member {
	m := &member{parts: parts}
	for _, p := range parts {
		m.cons = append(m.cons, broker.NewPartitionConsumer(cl, "stream", p, start[p]))
		m.next = append(m.next, start[p])
	}
	return m
}

// poll returns the next merged round, nil once every partition is
// drained. The caller Releases it.
func (m *member) poll() (*EventBatch, error) {
	merged := NewEventBatch()
	for i, c := range m.cons {
		b, err := c.PollBatch(4096)
		if err != nil {
			merged.Release()
			return nil, err
		}
		if b == nil {
			continue
		}
		m.next[i] = b.Base + int64(b.Len())
		for j := 0; j < b.Len(); j++ {
			merged.AppendEvent(b.EventAt(j))
		}
		b.Release()
	}
	if merged.Len() == 0 {
		merged.Release()
		return nil, nil
	}
	merged.SortByTime()
	return merged, nil
}

// serveBroker serves b on loopback as a one-member cluster, the way
// brokerd runs without -peers.
func serveBroker(t *testing.T, b *broker.Broker) *broker.Server {
	t.Helper()
	srv, err := broker.ServeWithOptions(b, "127.0.0.1:0", broker.ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	node, err := broker.NewClusterNode(b, broker.NodeConfig{ID: "n0", Peers: map[string]string{"n0": srv.Addr()}, Replicas: 1, MinISR: 1})
	if err != nil {
		srv.Close()
		t.Fatal(err)
	}
	srv.AttachNode(node)
	node.Start()
	t.Cleanup(func() {
		node.Close()
		srv.Close()
	})
	return srv
}

// TestEndToEndBrokerToSession exercises the full Figure-1 path: events
// are produced to the Kafka-like aggregator over TCP, read back by
// positioned partition readers as columnar batches, pushed through an
// OASRS Session, and the per-window estimates are checked against
// ground truth.
func TestEndToEndBrokerToSession(t *testing.T) {
	b := broker.New()
	if err := b.CreateTopic("stream", 4); err != nil {
		t.Fatal(err)
	}
	srv := serveBroker(t, b)

	// Produce the synthetic Gaussian workload over TCP in paper-style
	// 200-item messages.
	rng := xrand.New(7)
	events := workload.Generate(rng, 20*time.Second, workload.PaperGaussian(500, 500, 500)...)
	cc, err := broker.DialCluster([]string{srv.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = cc.Close() }()
	if _, err := (&workload.Replayer{ItemsPerMessage: 200}).Replay(context.Background(), cc, "stream", events); err != nil {
		t.Fatal(err)
	}

	// Consume (in-process readers against the same broker, from the
	// start of every partition) and stream into a Session.
	reader := newMember(b, []int{0, 1, 2, 3}, nil)
	session := NewSession(SessionConfig{Fraction: 0.5, Seed: 3})
	consumed := 0
	for {
		round, err := reader.poll()
		if err != nil {
			t.Fatal(err)
		}
		if round == nil {
			break
		}
		if err := session.PushBatch(round, 0, round.Len()); err != nil {
			t.Fatal(err)
		}
		consumed += round.Len()
		round.Release()
	}
	if consumed != len(events) {
		t.Fatalf("consumed %d of %d produced events", consumed, len(events))
	}
	results := session.Close()
	if len(results) < 3 {
		t.Fatalf("only %d windows", len(results))
	}

	// Ground truth straight from the generated events.
	exact, err := Exact(Config{}, toPublic(events))
	if err != nil {
		t.Fatal(err)
	}
	exactByStart := make(map[time.Time]float64, len(exact))
	for _, r := range exact {
		exactByStart[r.Start] = r.Overall.Value
	}
	checked := 0
	for _, r := range results {
		want, ok := exactByStart[r.Start]
		if !ok {
			continue
		}
		checked++
		if loss := math.Abs(r.Overall.Value-want) / want; loss > 0.08 {
			t.Errorf("window %v: estimate %v vs exact %v (loss %.3f)",
				r.Start, r.Overall.Value, want, loss)
		}
	}
	if checked < 3 {
		t.Fatalf("compared only %d windows", checked)
	}
}

func toPublic(in []stream.Event) []Event {
	out := make([]Event, len(in))
	for i, e := range in {
		out[i] = Event(e)
	}
	return out
}

// TestTCPPositionHandOffFeedsTwoShards exercises the broker TCP
// transport end to end through a hand-off of reader positions: a single
// member consumes part of a 4-partition topic, then two members — each
// over its own TCP client and an explicit partition list — resume from
// the positions it reached and feed two concurrent shard Sessions. No
// record may be lost or read twice across the hand-off.
func TestTCPPositionHandOffFeedsTwoShards(t *testing.T) {
	b := broker.New()
	if err := b.CreateTopic("stream", 4); err != nil {
		t.Fatal(err)
	}
	srv := serveBroker(t, b)

	rng := xrand.New(23)
	base := time.Date(2017, 12, 11, 0, 0, 0, 0, time.UTC)
	var events []stream.Event
	for i := 0; i < 10000; i++ {
		events = append(events, stream.Event{
			Stratum: string(rune('a' + i%11)),
			Value:   rng.Gaussian(100, 10),
			Time:    base.Add(time.Duration(i) * time.Millisecond),
		})
	}
	producer, err := broker.DialCluster([]string{srv.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = producer.Close() }()
	if n, err := producer.Partitions("stream"); err != nil || n != 4 {
		t.Fatalf("remote partitions = %d, %v", n, err)
	}
	produce := func(evs []stream.Event) {
		t.Helper()
		if _, err := (&workload.Replayer{ItemsPerMessage: 200}).Replay(context.Background(), producer, "stream", evs); err != nil {
			t.Fatal(err)
		}
	}

	type key struct {
		part int
		off  int64
	}
	seen := make(map[key]bool)
	record := func(part int, from, to int64) {
		t.Helper()
		for off := from; off < to; off++ {
			k := key{part, off}
			if seen[k] {
				t.Fatalf("record (p=%d, off=%d) read twice across the hand-off", part, off)
			}
			seen[k] = true
		}
	}

	// Generation 1: one member over TCP consumes the first batch of
	// records; the positions it reaches are handed to generation 2.
	produce(events[:3000])
	cli1, err := broker.DialCluster([]string{srv.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = cli1.Close() }()
	solo := newMember(cli1, []int{0, 1, 2, 3}, nil)
	gen1 := 0
	for {
		round, err := solo.poll()
		if err != nil {
			t.Fatal(err)
		}
		if round == nil {
			break
		}
		gen1 += round.Len()
		round.Release()
	}
	if gen1 != 3000 {
		t.Fatalf("generation 1 consumed %d of 3000", gen1)
	}
	handOff := make(map[int]int64)
	for i, p := range solo.parts {
		record(p, 0, solo.next[i])
		handOff[p] = solo.next[i]
	}

	// Hand-off: two members, each on its own TCP connection, take over
	// the partitions after more records arrive. Each member feeds its
	// own concurrent shard Session.
	produce(events[3000:])
	type shardOut struct {
		m        *member
		consumed int
		windows  int
		err      error
	}
	outs := make([]shardOut, 2)
	var wg sync.WaitGroup
	for i, parts := range [][]int{{0, 2}, {1, 3}} {
		wg.Add(1)
		go func(out *shardOut, parts []int, seed uint64) {
			defer wg.Done()
			cli, err := broker.DialCluster([]string{srv.Addr()})
			if err != nil {
				out.err = err
				return
			}
			defer func() { _ = cli.Close() }()
			out.m = newMember(cli, parts, handOff)
			sess := NewSession(SessionConfig{
				WindowSize:  2 * time.Second,
				WindowSlide: time.Second,
				Fraction:    0.5,
				Seed:        seed,
			})
			for {
				round, err := out.m.poll()
				if err != nil {
					out.err = err
					return
				}
				if round == nil {
					break
				}
				err = sess.PushBatch(round, 0, round.Len())
				out.consumed += round.Len()
				round.Release()
				if err != nil {
					out.err = err
					return
				}
			}
			out.windows = len(sess.Close())
		}(&outs[i], parts, uint64(i+1))
	}
	wg.Wait()

	gen2 := 0
	for i, out := range outs {
		if out.err != nil {
			t.Fatalf("member %d: %v", i, out.err)
		}
		if out.windows == 0 {
			t.Errorf("member %d produced no windows", i)
		}
		// Re-read the consumed span (handed-off gen-1 position up to the
		// final offset) for the exactly-once check.
		reread := 0
		for j, p := range out.m.parts {
			start := handOff[p]
			recs, err := b.Fetch("stream", p, start, int(out.m.next[j]-start))
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range recs {
				record(r.Partition, r.Offset, r.Offset+1)
			}
			reread += len(recs)
		}
		if reread != out.consumed {
			t.Errorf("member %d pushed %d records but its offsets span %d", i, out.consumed, reread)
		}
		gen2 += reread
	}
	if gen1+gen2 != len(events) {
		t.Fatalf("consumed %d + %d records, want %d total (lost across the hand-off)",
			gen1, gen2, len(events))
	}
	// Every partition/offset pair must have been covered exactly once.
	for p := 0; p < 4; p++ {
		hwm, err := b.HighWatermark("stream", p)
		if err != nil {
			t.Fatal(err)
		}
		for off := int64(0); off < hwm; off++ {
			if !seen[key{p, off}] {
				t.Fatalf("record (p=%d, off=%d) never consumed", p, off)
			}
		}
	}
}

// TestHistogramQuery exercises the histogram path through the public
// one-shot API.
func TestHistogramQuery(t *testing.T) {
	events := testEvents(t, 12)
	cfg := Config{
		Query:          Histogram,
		HistogramEdges: []float64{0, 100, 2000, 20000},
		Fraction:       0.5,
		Seed:           5,
	}
	rep, err := Run(cfg, events)
	if err != nil {
		t.Fatal(err)
	}
	exact, err := Exact(cfg, events)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range rep.Results {
		if len(r.Buckets) != 3 {
			t.Fatalf("window %d has %d buckets", i, len(r.Buckets))
		}
		for j, b := range r.Buckets {
			want := exact[i].Buckets[j].Count.Value
			if want == 0 {
				continue
			}
			if loss := math.Abs(b.Count.Value-want) / want; loss > 0.1 {
				t.Errorf("window %d bucket [%v,%v): %v vs %v",
					i, b.Lo, b.Hi, b.Count.Value, want)
			}
		}
	}
}
