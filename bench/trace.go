package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call the harness made into a layer. Spans of one request
// share Req; Parent is the index of the span that caused this one (-1 for a
// root). Start and End are nanoseconds since the tracer's epoch.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Req    int64  `json:"req"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, which is how the untraced run pays nothing for it.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer {
	// room for a traced half of the fastest workload (~4k ops/s) without
	// growing the slice inside the timed phase
	return &tracer{epoch: time.Now(), spans: make([]span, 0, 1<<16)}
}

// add records one finished span and returns its index (a parent handle).
func (t *tracer) add(name string, start, end time.Time, parent int, req int64) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{
		Name:   name,
		Start:  start.Sub(t.epoch).Nanoseconds(),
		End:    end.Sub(t.epoch).Nanoseconds(),
		Parent: parent,
		Req:    req,
	})
	i := len(t.spans) - 1
	t.mu.Unlock()
	return i
}

// reserve opens a parent span whose end is not known yet; finish closes it.
func (t *tracer) reserve(name string, start time.Time, parent int, req int64) int {
	return t.add(name, start, start, parent, req)
}

func (t *tracer) finish(i int, end time.Time) {
	if t == nil || i < 0 {
		return
	}
	t.mu.Lock()
	t.spans[i].End = end.Sub(t.epoch).Nanoseconds()
	t.mu.Unlock()
}

// durationsMS returns every span duration recorded under name.
func (t *tracer) durationsMS(name string) []float64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// write dumps the spans as JSON to <dir>/trace-<workload>.json.
func (t *tracer) write(dir, workload string, env map[string]string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("trace dir: %w", err)
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	t.mu.Lock()
	data, err := json.Marshal(struct {
		Workload string            `json:"workload"`
		Env      map[string]string `json:"env"`
		Spans    []span            `json:"spans"`
	}{workload, env, t.spans})
	t.mu.Unlock()
	if err != nil {
		return "", fmt.Errorf("encode trace: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return "", fmt.Errorf("write trace: %w", err)
	}
	return path, nil
}
