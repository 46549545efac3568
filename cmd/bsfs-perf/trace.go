// trace.go is the traced run's span recorder. The benchmark cannot see
// inside an end-to-end operation yet, so spans are recorded from this
// package only, around calls into each layer's public functions; the
// layer staircase (layers.go) turns them into per-layer self times.
package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed call. Spans of one operation share Op; Parent is
// the Span id of the caller's span (0 for an operation's root). Until
// spans are recorded inside the program every span is its operation's
// root: the staircase, not nesting, separates the layers.
type span struct {
	Op      int64  `json:"op"`
	Span    int64  `json:"span"`
	Parent  int64  `json:"parent"`
	Layer   string `json:"layer"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Bytes   int64  `json:"bytes"`
}

// recorder keeps spans in a preallocated slice and writes them once,
// when the run ends. A nil *recorder records nothing, so call sites
// need no tracing-on branch.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	next  int64
	// on gates recording: the traced workload pass switches it off on
	// alternate rounds to measure the recorder's own overhead.
	on bool
}

func newRecorder(capacity int) *recorder {
	return &recorder{t0: time.Now(), spans: make([]span, 0, capacity), on: true}
}

func (r *recorder) enable(on bool) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.on = on
	r.mu.Unlock()
}

// add records one finished call as the root span of a new operation.
func (r *recorder) add(layer, name string, start, end time.Time, bytes int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.on {
		return
	}
	r.next++
	r.spans = append(r.spans, span{
		Op: r.next, Span: r.next, Layer: layer, Name: name,
		StartNS: start.Sub(r.t0).Nanoseconds(), EndNS: end.Sub(r.t0).Nanoseconds(), Bytes: bytes,
	})
}

func (r *recorder) len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.spans)
}

// writeFile dumps the spans as one JSON array.
func (r *recorder) writeFile(path string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(r.spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
