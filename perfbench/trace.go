package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"
)

// tracer keeps spans in memory and writes them out once, as Chrome trace
// JSON, when the run ends. A nil *tracer records nothing, so untraced runs
// pay one nil check per layer call.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	next  int64
	spans []span
}

// span is one timed call into a layer. Spans of one round or request share
// a group ID; parent is the ID of the span that caused this one (0 = none).
type span struct {
	Name       string
	ID, Parent int64
	Group      int64
	Lane       int
	Start, End time.Time
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// add records a finished span and returns its ID.
func (t *tracer) add(name string, parent, group int64, lane int, start, end time.Time) int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	t.spans = append(t.spans, span{Name: name, ID: t.next, Parent: parent, Group: group, Lane: lane, Start: start, End: end})
	return t.next
}

// newID reserves a span ID for a parent recorded after its children.
func (t *tracer) newID() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	return t.next
}

// addWithID records a finished span under an ID reserved by newID.
func (t *tracer) addWithID(id int64, name string, parent, group int64, lane int, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent, Group: group, Lane: lane, Start: start, End: end})
}

func (t *tracer) len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// write saves the spans as a Chrome trace ("X" complete events, times in
// microseconds since the tracer started).
func (t *tracer) write(path string) error {
	t.mu.Lock()
	evs := make([]chromeEvent, len(t.spans))
	for i, s := range t.spans {
		evs[i] = chromeEvent{
			Name: s.Name, Ph: "X", Pid: 1, Tid: s.Lane,
			Ts:   float64(s.Start.Sub(t.t0).Nanoseconds()) / 1e3,
			Dur:  float64(s.End.Sub(s.Start).Nanoseconds()) / 1e3,
			Args: map[string]any{"id": s.ID, "parent": s.Parent, "group": s.Group},
		}
	}
	t.mu.Unlock()
	b, err := json.Marshal(map[string]any{"traceEvents": evs, "displayTimeUnit": "ms"})
	if err != nil {
		return fmt.Errorf("encoding trace: %w", err)
	}
	return os.WriteFile(path, b, 0o644)
}
