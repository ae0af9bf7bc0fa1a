package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one interval at a layer boundary. Spans of one op share Op;
// Parent is the ID of the span that caused this one (0 for a root).
// Derived marks a span whose interval was not observed by the harness's
// own clock but laid out from a duration the engine reported (a mapreduce
// job's WallTime, say): its length is measured, its start is the end of
// its previous sibling.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Op      int64  `json:"op"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Derived bool   `json:"derived,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, which is how every end-to-end measurement runs.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<16)} }

// add records a finished span and returns its ID.
func (t *tracer) add(name string, parent int, op int64, start, end time.Time, derived bool) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Op: op, Name: name,
		StartNs: start.Sub(t.t0).Nanoseconds(), EndNs: end.Sub(t.t0).Nanoseconds(), Derived: derived,
	})
	return id
}

// write stores the spans as JSON with the run's environment record.
func (t *tracer) write(path string, env any) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	b, err := json.Marshal(struct {
		Env   any    `json:"env"`
		Spans []span `json:"spans"`
	}{env, t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
