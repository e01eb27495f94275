package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one traced interval. IDs are indices into the tracer's slice;
// Parent is the enclosing span and Cause the span whose completion made
// this one possible (the produce batch that closed a window), -1 for
// none. Times are nanoseconds since the tracer started.
type span struct {
	Name    string             `json:"name"`
	StartNS int64              `json:"start_ns"`
	EndNS   int64              `json:"end_ns"`
	Parent  int                `json:"parent"`
	Cause   int                `json:"cause"`
	Attrs   map[string]float64 `json:"attrs,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, which is how the untraced run pays no tracing cost.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// add records a finished span and returns its id (-1 on a nil tracer).
func (t *tracer) add(name string, start, end time.Time, parent, cause int, attrs map[string]float64) int {
	if t == nil {
		return -1
	}
	s := span{Name: name, StartNS: int64(start.Sub(t.t0)), EndNS: int64(end.Sub(t.t0)),
		Parent: parent, Cause: cause, Attrs: attrs}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	id := len(t.spans) - 1
	t.mu.Unlock()
	return id
}

func (t *tracer) len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval covered by its direct children (overlapping children
// are merged first, and children are clipped to the parent).
func selfTimes(spans []span) []int64 {
	children := make(map[int][]int)
	for i, s := range spans {
		if s.Parent >= 0 && s.Parent < len(spans) {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := make([]int64, len(spans))
	for i, s := range spans {
		out[i] = s.EndNS - s.StartNS
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].StartNS < spans[kids[b]].StartNS })
		coveredTo := s.StartNS
		for _, k := range kids {
			lo, hi := spans[k].StartNS, spans[k].EndNS
			if lo < coveredTo {
				lo = coveredTo
			}
			if hi > s.EndNS {
				hi = s.EndNS
			}
			if hi > lo {
				out[i] -= hi - lo
				coveredTo = hi
			}
		}
	}
	return out
}

// selfByName sums self time per span name, in seconds.
func selfByName(spans []span) map[string]float64 {
	self := selfTimes(spans)
	out := make(map[string]float64)
	for i, s := range spans {
		out[s.Name] += float64(self[i]) / 1e9
	}
	return out
}

// write stores the spans as a JSON array under dir.
func (t *tracer) write(dir, workload string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	_, _ = w.WriteString("[\n")
	for i := range t.spans {
		if i > 0 {
			_, _ = w.WriteString(",")
		}
		if err = enc.Encode(&t.spans[i]); err != nil {
			break
		}
	}
	t.mu.Unlock()
	_, _ = w.WriteString("]\n")
	if ferr := w.Flush(); err == nil {
		err = ferr
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return path, err
}
