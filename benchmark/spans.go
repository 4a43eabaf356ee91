package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call from the benchmark into a layer. Parent is the
// span that caused it (0 for a root); all spans of one traced process share
// its workload.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
	Name     string `json:"name"`
	Layer    string `json:"layer"`
	Workload string `json:"workload"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the process ends; a nil tracer records
// nothing, which is how the untraced runs go.
type tracer struct {
	workload string
	epoch    time.Time
	spans    []span
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, epoch: time.Now()}
}

func noop() {}

// begin opens a span and returns the function that closes it.
func (t *tracer) begin(name, layer string, parent int) func() {
	if t == nil {
		return noop
	}
	id := t.open(name, layer, parent)
	return func() { t.close(id) }
}

// open is begin for callers that need the span's ID as a parent.
func (t *tracer) open(name, layer string, parent int) int {
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Name: name, Layer: layer,
		Workload: t.workload, StartNS: time.Since(t.epoch).Nanoseconds(),
	})
	return len(t.spans)
}

func (t *tracer) close(id int) {
	t.spans[id-1].EndNS = time.Since(t.epoch).Nanoseconds()
}

// adopt appends another process's spans, renumbered to follow this
// tracer's own; their clocks stay their own, each pass starting near zero.
func (t *tracer) adopt(spans []span) {
	off := len(t.spans)
	for _, s := range spans {
		s.ID += off
		if s.Parent != 0 {
			s.Parent += off
		}
		t.spans = append(t.spans, s)
	}
}

func (s span) dur() int64 { return s.EndNS - s.StartNS }

// durations returns the length in ns of every span with the given name.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.dur()))
		}
	}
	return out
}

// write stores the spans as one JSON array.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
