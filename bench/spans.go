package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call. Parent is the id of the span that caused it (0 for a root);
// every span of one pass or one client request shares a trace id.
type span struct {
	Trace  int    `json:"trace"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced code paths call it unconditionally.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id.
func (t *tracer) begin(trace, parent int, name string) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Trace: trace, ID: len(t.spans) + 1, Parent: parent, Name: name, Start: now})
	return len(t.spans)
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// count returns the number of spans recorded so far.
func (t *tracer) count() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// selfSeconds sums, per span name, the self time of every span of one
// trace: its duration minus the durations of its children. Children of
// one span run one after another on the caller's goroutine, so their
// durations never overlap.
func (t *tracer) selfSeconds(trace int) map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	self := map[int]int64{}
	for _, s := range t.spans {
		if s.Trace != trace {
			continue
		}
		d := s.End - s.Start
		self[s.ID] += d
		if s.Parent != 0 {
			self[s.Parent] -= d
		}
	}
	out := map[string]float64{}
	for id, ns := range self {
		out[t.spans[id-1].Name] += float64(ns) / 1e9
	}
	return out
}

// durations returns the duration in milliseconds of every span whose
// name starts with prefix, keyed by full name.
func (t *tracer) durations(prefix string) map[string][]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := map[string][]float64{}
	for _, s := range t.spans {
		if strings.HasPrefix(s.Name, prefix) {
			out[s.Name] = append(out[s.Name], float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// writeJSONL writes every span as one JSON object per line.
func (t *tracer) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}

// spanCostSeconds measures what recording one span costs, so a traced
// run can report its own overhead as spans × cost ÷ wall time.
func spanCostSeconds() float64 {
	const n = 100_000
	t := newTracer()
	start := time.Now()
	for i := 0; i < n; i++ {
		t.end(t.begin(1, 0, "calibrate"))
	}
	return time.Since(start).Seconds() / n
}
