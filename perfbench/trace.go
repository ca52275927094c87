package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// A minimal span recorder. Spans are kept in memory and written out once,
// when the run ends; a span's self time is its duration minus the time its
// direct children cover.

type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index of the parent span, -1 at a root
	Req    int    `json:"req"`    // request id; -1 outside requests
}

type tracer struct {
	origin time.Time
	spans  []span
	stack  []int
	req    int
}

func newTracer() *tracer { return &tracer{origin: time.Now(), req: -1} }

// begin opens a span under the innermost open one and returns its id.
func (t *tracer) begin(name string) int {
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Start: time.Since(t.origin).Nanoseconds(), Parent: parent, Req: t.req})
	t.stack = append(t.stack, id)
	return id
}

// end closes span id, which must be the innermost open span.
func (t *tracer) end(id int) time.Duration {
	t.spans[id].End = time.Since(t.origin).Nanoseconds()
	t.stack = t.stack[:len(t.stack)-1]
	return time.Duration(t.spans[id].End - t.spans[id].Start)
}

// do runs f inside a span.
func (t *tracer) do(name string, f func()) time.Duration {
	id := t.begin(name)
	f()
	return t.end(id)
}

// self returns every span's self time, indexed like t.spans.
func (t *tracer) self() []time.Duration {
	out := make([]time.Duration, len(t.spans))
	for i, s := range t.spans {
		out[i] += time.Duration(s.End - s.Start)
		if s.Parent >= 0 {
			out[s.Parent] -= time.Duration(s.End - s.Start)
		}
	}
	return out
}

// selfByName sums self time per span name.
func (t *tracer) selfByName() map[string]time.Duration {
	out := map[string]time.Duration{}
	for i, d := range t.self() {
		out[t.spans[i].Name] += d
	}
	return out
}

// write stores the spans as JSON under dir.
func (t *tracer) write(dir, name string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name), b, 0o644)
}
