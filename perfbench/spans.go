package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// Span recording for the traced run. Spans are taken from the benchmark's
// own code around each call into a layer's public functions; they stay in
// memory and are written out once, when the run ends.

// span is one timed call: its layer-qualified name, start and end relative
// to the recorder's epoch, the span that caused it (0 = none) and the op it
// belongs to (0 = the layer walk).
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent,omitempty"`
	Op     int     `json:"op"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_us"`
	End    float64 `json:"end_us"`
}

func (s span) dur() time.Duration {
	return time.Duration((s.End - s.Start) * float64(time.Microsecond))
}

// recorder collects spans. A nil recorder records nothing, so untraced
// runs pay one nil check per boundary.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) since(t time.Time) float64 {
	return float64(t.Sub(r.epoch)) / float64(time.Microsecond)
}

// start opens a span and returns its ID (0 on a nil recorder).
func (r *recorder) start(name string, parent, op int) int {
	if r == nil {
		return 0
	}
	now := r.since(time.Now())
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Op: op, Name: name, Start: now})
	return len(r.spans)
}

// end closes span id.
func (r *recorder) end(id int) {
	if r == nil || id == 0 {
		return
	}
	now := r.since(time.Now())
	r.mu.Lock()
	r.spans[id-1].End = now
	r.mu.Unlock()
}

// timed runs fn inside a span and returns its duration, so callers read
// the same interval the span records.
func (r *recorder) timed(name string, parent, op int, fn func()) time.Duration {
	id := r.start(name, parent, op)
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	r.end(id)
	return d
}

// durations returns the durations of every closed span with the name.
func (r *recorder) durations(name string) []float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []float64
	for _, s := range r.spans {
		if s.Name == name && s.End > 0 {
			out = append(out, ms(s.dur()))
		}
	}
	return out
}

// writeFile stores every span as one JSON document.
func (r *recorder) writeFile(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	r.mu.Lock()
	data, err := json.Marshal(r.spans)
	r.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
