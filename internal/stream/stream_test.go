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

func TestSliceSource(t *testing.T) {
	events := []Event{ev("a", 1, 0), ev("b", 2, 1), ev("a", 3, 2)}
	src := NewSliceSource(events)
	if src.Len() != 3 {
		t.Fatalf("Len = %d, want 3", src.Len())
	}
	got := Drain(src)
	if len(got) != 3 {
		t.Fatalf("drained %d events, want 3", len(got))
	}
	for i := range got {
		if got[i] != events[i] {
			t.Errorf("event %d = %+v, want %+v", i, got[i], events[i])
		}
	}
	if _, ok := src.Next(); ok {
		t.Error("exhausted source returned an event")
	}
	src.Reset()
	if e, ok := src.Next(); !ok || e != events[0] {
		t.Error("Reset did not rewind the source")
	}
}

func TestSourceFunc(t *testing.T) {
	n := 0
	src := SourceFunc(func() (Event, bool) {
		if n >= 2 {
			return Event{}, false
		}
		n++
		return ev("x", float64(n), n), true
	})
	if got := len(Drain(src)); got != 2 {
		t.Errorf("drained %d, want 2", got)
	}
}

func TestCollectSink(t *testing.T) {
	var sink CollectSink
	sink.Emit(ev("a", 1, 0))
	sink.Emit(ev("b", 2, 1))
	if len(sink.Events) != 2 {
		t.Fatalf("collected %d, want 2", len(sink.Events))
	}
}

func TestSinkFunc(t *testing.T) {
	n := 0
	s := SinkFunc(func(Event) { n++ })
	s.Emit(Event{})
	if n != 1 {
		t.Error("SinkFunc did not invoke the function")
	}
}

func TestInterleaveOrdersByTime(t *testing.T) {
	a := []Event{ev("a", 1, 0), ev("a", 2, 10), ev("a", 3, 20)}
	b := []Event{ev("b", 4, 5), ev("b", 5, 15)}
	merged := Interleave(a, b)
	if len(merged) != 5 {
		t.Fatalf("merged %d events, want 5", len(merged))
	}
	for i := 1; i < len(merged); i++ {
		if merged[i].Time.Before(merged[i-1].Time) {
			t.Fatalf("merged stream out of order at %d: %v", i, merged)
		}
	}
}

func TestInterleaveEmpty(t *testing.T) {
	if got := Interleave(); len(got) != 0 {
		t.Errorf("Interleave() = %v, want empty", got)
	}
	if got := Interleave(nil, nil); len(got) != 0 {
		t.Errorf("Interleave(nil,nil) = %v, want empty", got)
	}
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
