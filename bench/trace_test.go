package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"
)

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "produce", StartNS: 0, EndNS: 100, Parent: -1, Cause: -1},
		{Name: "encode", StartNS: 10, EndNS: 40, Parent: 0, Cause: -1},
		{Name: "wire", StartNS: 30, EndNS: 70, Parent: 0, Cause: -1},   // overlaps encode by 10
		{Name: "late", StartNS: 90, EndNS: 130, Parent: 0, Cause: -1},  // sticks out of the parent by 30
		{Name: "inner", StartNS: 35, EndNS: 45, Parent: 2, Cause: -1},  // grandchild: only wire's
		{Name: "window", StartNS: 50, EndNS: 60, Parent: -1, Cause: 0}, // caused by, not inside, produce
	}
	want := []int64{100 - 60 - 10, 30, 40 - 10, 40, 10, 10}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of %s = %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
	if by := selfByName(spans); by["produce"] != 30e-9 {
		t.Errorf("selfByName = %v", by)
	}
}

func TestTracerWritesTheSpanSchema(t *testing.T) {
	var off *tracer
	if id := off.add("x", time.Now(), time.Now(), -1, -1, nil); id != -1 || off.len() != 0 {
		t.Fatal("a nil tracer must record nothing")
	}
	tr := newTracer()
	start := time.Now()
	parent := tr.add("produce", start, start.Add(time.Millisecond), -1, -1, map[string]float64{"batch": 7})
	tr.add("window", start, start.Add(2*time.Millisecond), -1, parent, nil)
	path, err := tr.write(t.TempDir(), "unit")
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back []map[string]any
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("trace file is not a JSON array: %v", err)
	}
	if len(back) != 2 || back[1]["cause"] != float64(0) || back[0]["attrs"].(map[string]any)["batch"] != float64(7) {
		t.Fatalf("round trip: %v", back)
	}
	for _, key := range []string{"name", "start_ns", "end_ns", "parent", "cause"} {
		if _, ok := back[0][key]; !ok {
			t.Errorf("span lacks %q", key)
		}
	}
}
