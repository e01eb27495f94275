// Checkpoint and resume: a Session is snapshotted mid-stream (as a
// periodic checkpoint would), "crashes", and a restored Session finishes
// the stream. The restored run produces bit-identical window estimates
// to an uninterrupted reference run, because the snapshot captures the
// reservoirs, pending windows, watermark and the sampler's seed.
package main

import (
	"fmt"
	"math/rand"
	"os"
	"time"

	"streamapprox"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "checkpoint-resume:", err)
		os.Exit(1)
	}
}

func run() error {
	events := makeStream()
	cfg := streamapprox.SessionConfig{
		Query:    streamapprox.Sum,
		Fraction: 0.3,
		Seed:     42,
	}

	// Reference: one uninterrupted session.
	ref := streamapprox.NewSession(cfg)
	for _, e := range events {
		if err := ref.Push(e); err != nil {
			return err
		}
	}
	reference := ref.Close()

	// Checkpointed run: process half, snapshot, "crash", restore, finish.
	first := streamapprox.NewSession(cfg)
	half := len(events) / 2
	for _, e := range events[:half] {
		if err := first.Push(e); err != nil {
			return err
		}
	}
	early := first.Poll()
	snapshot, err := first.Snapshot()
	if err != nil {
		return err
	}
	fmt.Printf("checkpoint taken after %d events (%d bytes, %d windows already emitted)\n\n",
		half, len(snapshot), len(early))
	// ...crash; all in-memory state is lost except the snapshot bytes...

	resumed, err := streamapprox.RestoreSession(snapshot)
	if err != nil {
		return err
	}
	for _, e := range events[half:] {
		if err := resumed.Push(e); err != nil {
			return err
		}
	}
	recovered := append(early, resumed.Close()...)

	fmt.Println("window    reference-estimate  resumed-estimate    identical")
	identical := true
	for i := range reference {
		same := reference[i].Overall.Value == recovered[i].Overall.Value
		identical = identical && same
		fmt.Printf("%s  %18.0f  %16.0f    %v\n",
			reference[i].Start.Format("15:04:05"),
			reference[i].Overall.Value, recovered[i].Overall.Value, same)
	}
	if !identical {
		return fmt.Errorf("resumed run diverged from reference")
	}
	fmt.Println("\nresumed run is bit-identical to the uninterrupted run")
	return nil
}

func makeStream() []streamapprox.Event {
	rng := rand.New(rand.NewSource(99))
	base := time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC)
	var events []streamapprox.Event
	for ms := 0; ms < 40000; ms += 2 {
		events = append(events, streamapprox.Event{
			Stratum: "src",
			Value:   50 + 10*rng.NormFloat64(),
			Time:    base.Add(time.Duration(ms) * time.Millisecond),
		})
	}
	return events
}
