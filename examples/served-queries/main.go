// Served queries: run the whole serving stack in one process — a
// brokerd-style aggregator, a replayed event stream, and a saproxd
// query service — then act as an HTTP client: register a MEAN query and
// read the merged per-window "estimate ± error" results the four shard
// workers produce.
//
// Against a real deployment the in-process setup is replaced by the
// three daemons (see README.md):
//
//	brokerd -addr :9092 -topic stream -partitions 4
//	saproxd -brokers 127.0.0.1:9092 -topic stream -addr :9090
//	replay  -addr 127.0.0.1:9092 -topic stream -dataset netflow
//
// and this program's HTTP calls work unchanged against
// http://127.0.0.1:9090.
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"time"

	"streamapprox/internal/broker"
	"streamapprox/internal/server"
	"streamapprox/internal/stream"
	"streamapprox/internal/workload"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "served-queries:", err)
		os.Exit(1)
	}
}

func run() error {
	// Aggregator tier: a 4-partition topic; keyed records pin each
	// source to a stable partition, so every saproxd shard samples a
	// disjoint slice of the sources.
	b := broker.New()
	if err := b.CreateTopic("stream", 4); err != nil {
		return err
	}

	// Serving tier: saproxd over the broker, one shard per partition.
	srv, err := server.New(server.Config{Cluster: b, Topic: "stream", PollBackoff: time.Millisecond})
	if err != nil {
		return err
	}
	defer srv.Close()
	api := httptest.NewServer(srv.Handler())
	defer api.Close()

	// Replay tier: feed 30 seconds of an 8-sensor stream at full speed.
	go func() {
		r := &workload.Replayer{ItemsPerMessage: 200}
		_, _ = r.Replay(context.Background(), b, "stream", makeStream())
	}()

	// --- The client side: plain HTTP against the saproxd API. ---

	// Register: mean over a 5s window sliding by 2.5s, sampling 40%.
	resp, err := http.Post(api.URL+"/v1/queries", "application/json", strings.NewReader(
		`{"kind":"mean","window":"5s","slide":"2.5s","fraction":0.4}`))
	if err != nil {
		return err
	}
	var info struct {
		ID     string `json:"id"`
		Shards int    `json:"shards"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		return err
	}
	_ = resp.Body.Close()
	fmt.Printf("registered query %s across %d shard workers\n\n", info.ID, info.Shards)

	// Stream merged windows as they fire.
	streamResp, err := http.Get(api.URL + "/v1/queries/" + info.ID + "/stream?since=-1")
	if err != nil {
		return err
	}
	defer func() { _ = streamResp.Body.Close() }()

	fmt.Println("window                mean ± bound        items   sampled  shards")
	dec := json.NewDecoder(streamResp.Body)
	for seen := 0; seen < 8; seen++ {
		var w struct {
			Start   time.Time `json:"start"`
			End     time.Time `json:"end"`
			Value   float64   `json:"value"`
			Error   float64   `json:"error"`
			Items   int64     `json:"items"`
			Sampled int       `json:"sampled"`
			Shards  int       `json:"shards"`
		}
		if err := dec.Decode(&w); err != nil {
			return fmt.Errorf("stream ended early: %w", err)
		}
		fmt.Printf("[%s, %s)  %8.2f ± %-8.2f %7d %8d %7d\n",
			w.Start.Format("15:04:05"), w.End.Format("15:04:05"),
			w.Value, w.Error, w.Items, w.Sampled, w.Shards)
	}

	// A point-in-time status read, like a dashboard would do.
	resp, err = http.Get(api.URL + "/v1/queries/" + info.ID)
	if err != nil {
		return err
	}
	var status struct {
		Windows int64   `json:"windows"`
		Records []int64 `json:"shard_records"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&status); err != nil {
		return err
	}
	_ = resp.Body.Close()
	fmt.Printf("\n%d windows served; per-shard records consumed: %v\n", status.Windows, status.Records)
	return nil
}

// makeStream synthesizes 30 seconds of 8 sensors at 1 kHz each.
func makeStream() []stream.Event {
	rng := rand.New(rand.NewSource(11))
	base := time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC)
	var events []stream.Event
	for ms := 0; ms < 30000; ms++ {
		t := base.Add(time.Duration(ms) * time.Millisecond)
		for s := 0; s < 8; s++ {
			events = append(events, stream.Event{
				Stratum: fmt.Sprintf("sensor-%d", s),
				Value:   float64(10*(s+1)) + rng.NormFloat64(),
				Time:    t,
			})
		}
	}
	return events
}
