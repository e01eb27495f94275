package main

import (
	"fmt"
	"io"
	"os"
	"strings"
	"testing"

	"streamapprox/internal/metrics"
)

// TestStatusBytesPerRecord: the partition table's B/REC is the leader's
// log bytes over its log-end offset; a follower's scrape does not count.
func TestStatusBytesPerRecord(t *testing.T) {
	scrape := func(node string, leader, logBytes int) *brokerScrape {
		sc, err := metrics.ParseText(strings.NewReader(fmt.Sprintf(`
broker_partition_leader{partition="0",topic="t"} %d
broker_partition_log_end_offset{partition="0",topic="t"} 200
broker_log_bytes{partition="0",topic="t"} %d
`, leader, logBytes)))
		if err != nil {
			t.Fatal(err)
		}
		return &brokerScrape{node: node, sc: sc}
	}
	out := captureStdout(t, func() {
		renderPartitions([]*brokerScrape{scrape("n0", 0, 9999), scrape("n1", 1, 2652)})
	})
	lines := strings.Split(out, "\n")
	if len(lines) < 2 {
		t.Fatalf("partition table:\n%s", out)
	}
	head, row := strings.Fields(lines[0]), strings.Fields(lines[1])
	if strings.Join(head[:5], " ") != "PARTITION LEADER ISR LOG-END B/REC" || row[1] != "n1" || row[4] != "13.3" {
		t.Fatalf("partition table:\n%s", out)
	}
}

// TestStatusProduceLatencyIsProducep: the broker table's PRODUCE column
// is the latency of the partitioned produce, the op every producer
// sends, read from its "producep" series.
func TestStatusProduceLatencyIsProducep(t *testing.T) {
	sc, err := metrics.ParseText(strings.NewReader(`
broker_request_seconds_bucket{le="0.0001",op="producep"} 90
broker_request_seconds_bucket{le="0.001",op="producep"} 100
broker_request_seconds_bucket{le="+Inf",op="producep"} 100
broker_request_seconds_sum{op="producep"} 0.005
broker_request_seconds_count{op="producep"} 100
`))
	if err != nil {
		t.Fatal(err)
	}
	out := captureStdout(t, func() { renderBrokers([]*brokerScrape{{node: "n0", sc: sc}}) })
	lines := strings.Split(out, "\n")
	if len(lines) < 2 {
		t.Fatalf("broker table:\n%s", out)
	}
	head, row := strings.Fields(lines[0]), strings.Fields(lines[1])
	if strings.Join(head[:4], " ") != "BROKER EPOCH STATE PRODUCE" || row[0] != "n0" || row[3] == "-" || row[4] != "-" {
		t.Fatalf("broker table (want PRODUCE p50/p99 from producep, FETCH -):\n%s", out)
	}
}

// captureStdout returns what render writes to standard output.
func captureStdout(t *testing.T, render func()) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	render()
	os.Stdout = stdout
	_ = w.Close()
	out, _ := io.ReadAll(r)
	return string(out)
}
