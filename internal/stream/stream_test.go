package stream

import (
	"testing"
	"testing/quick"
	"time"
)

func ev(stratum string, v float64, offsetMS int) Event {
	base := time.Date(2017, 12, 11, 0, 0, 0, 0, time.UTC)
	return Event{Stratum: stratum, Value: v, Time: base.Add(time.Duration(offsetMS) * time.Millisecond)}
}

func TestPartitionRoundRobin(t *testing.T) {
	events := []Event{ev("a", 1, 0), ev("a", 2, 1), ev("a", 3, 2), ev("a", 4, 3), ev("a", 5, 4)}
	parts := PartitionRoundRobin(events, 2)
	if len(parts) != 2 {
		t.Fatalf("got %d partitions", len(parts))
	}
	if len(parts[0]) != 3 || len(parts[1]) != 2 {
		t.Errorf("partition sizes %d/%d, want 3/2", len(parts[0]), len(parts[1]))
	}
}

func TestPartitionRoundRobinPreservesAll(t *testing.T) {
	if err := quick.Check(func(vals []float64, nRaw uint8) bool {
		n := int(nRaw%8) + 1
		events := make([]Event, len(vals))
		for i, v := range vals {
			events[i] = ev("s", v, i)
		}
		parts := PartitionRoundRobin(events, n)
		total := 0
		for _, p := range parts {
			total += len(p)
		}
		return total == len(events)
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestPartitionRoundRobinNonPositiveN(t *testing.T) {
	parts := PartitionRoundRobin([]Event{ev("a", 1, 0)}, 0)
	if len(parts) != 1 || len(parts[0]) != 1 {
		t.Errorf("PartitionRoundRobin with n=0 should fall back to 1 partition")
	}
}

func TestPartitionByStratum(t *testing.T) {
	events := []Event{ev("tcp", 1, 0), ev("udp", 2, 1), ev("tcp", 3, 2)}
	groups := PartitionByStratum(events)
	if len(groups) != 2 {
		t.Fatalf("got %d strata, want 2", len(groups))
	}
	if len(groups["tcp"]) != 2 || groups["tcp"][0].Value != 1 || groups["tcp"][1].Value != 3 {
		t.Errorf("tcp group = %v", groups["tcp"])
	}
	if len(groups["udp"]) != 1 {
		t.Errorf("udp group = %v", groups["udp"])
	}
}
