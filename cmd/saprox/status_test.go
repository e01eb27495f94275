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
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	renderPartitions([]*brokerScrape{scrape("n0", 0, 9999), scrape("n1", 1, 2652)})
	os.Stdout = stdout
	_ = w.Close()
	out, _ := io.ReadAll(r)
	lines := strings.Split(string(out), "\n")
	if len(lines) < 2 {
		t.Fatalf("partition table:\n%s", out)
	}
	head, row := strings.Fields(lines[0]), strings.Fields(lines[1])
	if strings.Join(head[:5], " ") != "PARTITION LEADER ISR LOG-END B/REC" || row[1] != "n1" || row[4] != "13.3" {
		t.Fatalf("partition table:\n%s", out)
	}
}
