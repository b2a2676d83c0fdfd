package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// SpanID identifies a span within one Tracer; 0 means "no parent".
type SpanID uint64

// SpanRecord is one completed span: a named time range, optionally
// linked to a parent span, on the tracer's clock.
type SpanRecord struct {
	ID     SpanID        `json:"id"`
	Parent SpanID        `json:"parent,omitempty"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// Tracer records spans. All methods are safe for concurrent use and are
// no-ops on a nil receiver, so the global timeline can stay nil (zero
// cost beyond an atomic pointer load) until a CLI opts in.
//
// Span storage is bounded by MaxSpans; once full, further spans are
// counted in Dropped instead of recorded, so a tracer left attached to a
// long-running process cannot grow without bound.
type Tracer struct {
	// now is the span clock. The default is wall time since tracer
	// creation; tests install a deterministic virtual clock.
	now func() time.Duration

	// MaxSpans bounds recorded spans (default 1<<20). Set before use.
	MaxSpans int

	mu      sync.Mutex
	next    uint64
	spans   []SpanRecord
	dropped int64
}

// NewTracer returns a tracer on the wall clock, with time zero at the
// call.
func NewTracer() *Tracer {
	base := time.Now()
	return &Tracer{now: func() time.Duration { return time.Since(base) }}
}

// NewTracerClock returns a tracer reading time from now — typically a
// deterministic virtual clock, so golden tests get byte-stable exports.
func NewTracerClock(now func() time.Duration) *Tracer {
	return &Tracer{now: now}
}

// Span is an open (started, not yet ended) span. The zero Span is valid
// and inert: Begin on a nil tracer returns it, End on it does nothing —
// which is what keeps disabled-path instrumentation allocation-free.
type Span struct {
	tr     *Tracer
	id     SpanID
	parent SpanID
	name   string
	start  time.Duration
}

// Begin opens a span. parent of 0 makes it a root span.
func (t *Tracer) Begin(name string, parent SpanID) Span {
	if t == nil {
		return Span{}
	}
	t.mu.Lock()
	t.next++
	id := SpanID(t.next)
	t.mu.Unlock()
	return Span{tr: t, id: id, parent: parent, name: name, start: t.now()}
}

// ID returns the span's identity, for parent-linking children.
func (s Span) ID() SpanID { return s.id }

// Child opens a span parented under s on the same tracer.
func (s Span) Child(name string) Span {
	if s.tr == nil {
		return Span{}
	}
	return s.tr.Begin(name, s.id)
}

// End closes the span, recording it on the tracer.
func (s Span) End() {
	if s.tr == nil {
		return
	}
	end := s.tr.now()
	t := s.tr
	t.mu.Lock()
	max := t.MaxSpans
	if max <= 0 {
		max = 1 << 20
	}
	if len(t.spans) >= max {
		t.dropped++
	} else {
		t.spans = append(t.spans, SpanRecord{
			ID: s.id, Parent: s.parent, Name: s.name, Start: s.start, End: end,
		})
	}
	t.mu.Unlock()
}

// Dropped reports spans discarded after MaxSpans was reached.
func (t *Tracer) Dropped() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// Snapshot returns the completed spans sorted by (start, ID) — a
// deterministic order even when concurrent workers finished out of
// order.
func (t *Tracer) Snapshot() []SpanRecord {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := make([]SpanRecord, len(t.spans))
	copy(out, t.spans)
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Start != out[j].Start {
			return out[i].Start < out[j].Start
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// chromeEvent is one Chrome trace-event ("X" = complete event with
// duration). Times are microseconds, per the trace-event spec.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	PID  int            `json:"pid"`
	TID  uint64         `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// WriteChromeTrace emits the spans in Chrome trace-event JSON, loadable
// in Perfetto or chrome://tracing. Each span family (a root span and
// its descendants) is placed on its own track (tid = root span ID), so
// concurrent experiments render as parallel lanes with their stage
// spans nested inside.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	spans := t.Snapshot()
	parent := make(map[SpanID]SpanID, len(spans))
	for _, s := range spans {
		parent[s.ID] = s.Parent
	}
	root := func(id SpanID) SpanID {
		for i := 0; i < len(spans)+1; i++ { // bounded walk guards cycles
			p, ok := parent[id]
			if !ok || p == 0 {
				return id
			}
			id = p
		}
		return id
	}
	events := make([]chromeEvent, 0, len(spans))
	for _, s := range spans {
		ev := chromeEvent{
			Name: s.Name,
			Ph:   "X",
			TS:   float64(s.Start) / 1e3,
			Dur:  float64(s.End-s.Start) / 1e3,
			PID:  1,
			TID:  uint64(root(s.ID)),
		}
		if s.Parent != 0 {
			ev.Args = map[string]any{"parent": uint64(s.Parent)}
		}
		events = append(events, ev)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}{TraceEvents: events})
}

// WriteChromeTraceFile writes the Chrome trace JSON to path.
func (t *Tracer) WriteChromeTraceFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := t.WriteChromeTrace(f); err != nil {
		f.Close()
		return fmt.Errorf("writing timeline %s: %w", path, err)
	}
	return f.Close()
}

// timeline is the process-wide tracer instrumented hot paths report to.
// nil (the default) disables span collection entirely: StartSpan costs
// one atomic pointer load and returns the inert zero Span.
var timeline atomic.Pointer[Tracer]

// SetTimeline installs (or, with nil, removes) the global timeline
// tracer. Install it once at startup, before the workload.
func SetTimeline(t *Tracer) { timeline.Store(t) }

// StartSpan opens a root span on the global timeline. With no timeline
// installed it returns the inert zero Span without allocating.
func StartSpan(name string) Span { return timeline.Load().Begin(name, 0) }
