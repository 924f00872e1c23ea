package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's side
// of the call. Op groups the spans of one operation (an onboarding run, a
// served request, a reconcile cycle); Parent names the enclosing layer.
type span struct {
	Op      int    `json:"op"`
	Name    string `json:"name"`
	Parent  string `json:"parent,omitempty"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.EndNS - s.StartNS) }

// tracer keeps spans in memory for the length of a run; write dumps them
// once the run is over, so tracing costs no I/O while measuring. A nil
// tracer records nothing.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// add records a finished span.
func (t *tracer) add(op int, name, parent string, start, end time.Time) {
	if t == nil {
		return
	}
	s := span{Op: op, Name: name, Parent: parent,
		StartNS: start.Sub(t.t0).Nanoseconds(), EndNS: end.Sub(t.t0).Nanoseconds()}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// begin opens a span and returns the func that closes it.
func (t *tracer) begin(op int, name, parent string) func() {
	if t == nil {
		return func() {}
	}
	start := time.Now()
	return func() { t.add(op, name, parent, start, time.Now()) }
}

// byName returns the durations of every span with the given name, keyed
// by op (summed within an op).
func (t *tracer) byName(name string) map[int]time.Duration {
	out := map[int]time.Duration{}
	if t == nil {
		return out
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		if s.Name == name {
			out[s.Op] += s.dur()
		}
	}
	return out
}

// write dumps the spans as JSON into dir.
func (t *tracer) write(dir, file string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	t.mu.Lock()
	b, err := json.Marshal(t.spans)
	t.mu.Unlock()
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, file)
	return path, os.WriteFile(path, b, 0o644)
}
