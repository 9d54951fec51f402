package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one traced call the benchmark made into a layer. Spans of one
// operation (one solve, one ECO delta, one resubmission) share Op; the
// operation's root span has Parent -1.
type span struct {
	ID     int       `json:"id"`
	Parent int       `json:"parent"`
	Op     int       `json:"op"`
	Name   string    `json:"name"`
	Start  time.Time `json:"start"`
	End    time.Time `json:"end"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so the timed and the traced runs execute the same functions.
type tracer struct {
	mu    sync.Mutex
	spans []span
	ops   int
}

// spanRef names an open span; the zero value (from a nil tracer) is inert.
type spanRef struct {
	t  *tracer
	id int
}

// op opens the root span of a new operation.
func (t *tracer) op(name string) spanRef {
	if t == nil {
		return spanRef{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ops++
	return t.openLocked(name, -1, t.ops)
}

func (t *tracer) openLocked(name string, parent, op int) spanRef {
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: time.Now()})
	return spanRef{t: t, id: id}
}

// child opens a span caused by r, in r's operation.
func (r spanRef) child(name string) spanRef {
	if r.t == nil {
		return r
	}
	r.t.mu.Lock()
	defer r.t.mu.Unlock()
	return r.t.openLocked(name, r.id, r.t.spans[r.id].Op)
}

// end records the span's end time.
func (r spanRef) end() {
	if r.t == nil {
		return
	}
	now := time.Now()
	r.t.mu.Lock()
	r.t.spans[r.id].End = now
	r.t.mu.Unlock()
}

// durations returns the durations of the ended spans with the given name.
func (t *tracer) durations(name string) []time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []time.Duration
	for _, s := range t.spans {
		if s.Name == name && !s.End.IsZero() {
			out = append(out, s.End.Sub(s.Start))
		}
	}
	return out
}

func (t *tracer) count() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// write stores the spans as JSON at path, creating its directory.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
