package obs

import (
	"encoding/json"
	"io"
	"sync"
	"time"
)

// Event is one structured observability event: a session lifecycle
// transition, a backpressure or feed-contract rejection, a
// threshold-crossing anomaly — anything an operator tails instead of
// polling. Events are identified by a strictly increasing sequence
// number assigned at emission; the JSON form is the wire format of both
// the /v1/events API and the -events-out JSONL sink.
type Event struct {
	// Seq is the emission sequence number, starting at 1. Consumers
	// resume with ?since=<last seen Seq>.
	Seq uint64 `json:"seq"`
	// Time is the emission wall-clock time in Unix nanoseconds, taken
	// from the log's (injectable) clock.
	Time int64 `json:"time_unix_nano"`
	// Type names the event, dot-scoped ("session.create",
	// "session.backpressure", "session.anomaly.harq_p99", ...).
	Type string `json:"type"`

	// Session, Cell and Family locate the event in the fleet; empty when
	// not applicable.
	Session string `json:"session,omitempty"`
	Cell    string `json:"cell,omitempty"`
	Family  string `json:"family,omitempty"`

	// Detail is a human-readable elaboration (an error string, a digest).
	Detail string `json:"detail,omitempty"`
	// Value is the event's principal measurement, when it has one: the
	// pending count of a backpressure event, the p99 nanoseconds of an
	// anomaly, the packet count of a close.
	Value int64 `json:"value,omitempty"`
}

// DefaultEventBuffer is the ring capacity of an EventLog built with
// NewEventLog(0).
const DefaultEventBuffer = 4096

// EventLogStats is a point-in-time summary of an event log.
type EventLogStats struct {
	// Emitted is the total events ever emitted (the last assigned Seq).
	Emitted uint64 `json:"emitted"`
	// Dropped counts events evicted from the ring by newer emissions;
	// a consumer paging from ?since=0 sees Emitted - Dropped events.
	Dropped int64 `json:"dropped"`
	// Buffered is the number of events currently held.
	Buffered int `json:"buffered"`
	// Capacity is the fixed ring size.
	Capacity int `json:"capacity"`
}

// EventLog is a bounded, dependency-free structured event stream: a
// fixed-capacity ring buffer of Events with monotonically increasing
// sequence numbers, a dropped-event counter for ring overflow, an
// optional JSONL sink, and a broadcast channel for long-poll consumers.
// The zero capacity means DefaultEventBuffer. All methods are safe for
// concurrent use, and every method is nil-receiver-safe so producers can
// emit unconditionally whether or not a log is configured.
type EventLog struct {
	mu      sync.Mutex
	clock   func() time.Time
	buf     []Event
	head    int    // ring index of the oldest buffered event
	n       int    // buffered event count
	nextSeq uint64 // seq the next emission will receive
	dropped int64
	sink    io.Writer
	sinkErr error
	notify  chan struct{} // closed and replaced on every emission
}

// NewEventLog returns an empty log with the given ring capacity
// (DefaultEventBuffer when capacity <= 0).
func NewEventLog(capacity int) *EventLog {
	if capacity <= 0 {
		capacity = DefaultEventBuffer
	}
	return &EventLog{
		clock:   time.Now,
		buf:     make([]Event, capacity),
		nextSeq: 1,
		notify:  make(chan struct{}),
	}
}

// SetClock replaces the timestamp source (tests inject a deterministic
// tick clock). Call before any Emit.
func (l *EventLog) SetClock(now func() time.Time) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.clock = now
}

// SetSink attaches a JSONL sink: every subsequent event is appended to w
// as one JSON line, under the log's lock (emission order == line order).
// The first write error detaches the sink and is reported by SinkErr —
// event emission itself never fails.
func (l *EventLog) SetSink(w io.Writer) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.sink = w
}

// SinkErr reports the first sink write error, if any.
func (l *EventLog) SinkErr() error {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.sinkErr
}

// Emit assigns the next sequence number and timestamp to e, appends it
// (evicting the oldest buffered event if the ring is full), mirrors it
// to the sink, wakes long-poll waiters, and returns the assigned
// sequence number. A nil log discards the event and returns 0.
func (l *EventLog) Emit(e Event) uint64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	e.Seq = l.nextSeq
	l.nextSeq++
	e.Time = l.clock().UnixNano()
	if l.n == len(l.buf) {
		l.head = (l.head + 1) % len(l.buf)
		l.dropped++
	} else {
		l.n++
	}
	l.buf[(l.head+l.n-1)%len(l.buf)] = e
	if l.sink != nil && l.sinkErr == nil {
		if enc, err := json.Marshal(e); err != nil {
			l.sinkErr = err
		} else if _, err := l.sink.Write(append(enc, '\n')); err != nil {
			l.sinkErr = err
		}
	}
	close(l.notify)
	l.notify = make(chan struct{})
	l.mu.Unlock()
	return e.Seq
}

// Since returns up to max buffered events with Seq > after, in sequence
// order. dropped is the number of requested events that were already
// evicted from the ring (their range is skipped); next is the sequence
// number to pass as the following call's after — the last returned
// event's Seq, or the newest known Seq when nothing newer is buffered.
// max <= 0 means no limit. A nil log returns nothing.
func (l *EventLog) Since(after uint64, max int) (events []Event, dropped int64, next uint64) {
	if l == nil {
		return nil, 0, after
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	oldest := l.nextSeq - uint64(l.n) // seq of the oldest buffered event
	from := after + 1
	if from < oldest {
		dropped = int64(oldest - from)
		from = oldest
	}
	count := 0
	if from < l.nextSeq {
		count = int(l.nextSeq - from)
	}
	if max > 0 && count > max {
		count = max
	}
	if count > 0 {
		events = make([]Event, count)
		base := l.head + int(from-oldest)
		for i := 0; i < count; i++ {
			events[i] = l.buf[(base+i)%len(l.buf)]
		}
		next = from + uint64(count) - 1
	} else {
		next = l.nextSeq - 1
		if after > next {
			next = after
		}
	}
	return events, dropped, next
}

// Changed returns a channel that is closed at the next emission — the
// long-poll wait primitive. Grab the channel, call Since, and only then
// wait: any emission after the grab closes it. A nil log never emits, so
// its channel is nil — never ready — and a select on it falls through to
// the caller's timer or context instead of spinning.
func (l *EventLog) Changed() <-chan struct{} {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.notify
}

// Stats summarizes the log.
func (l *EventLog) Stats() EventLogStats {
	if l == nil {
		return EventLogStats{}
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return EventLogStats{
		Emitted:  l.nextSeq - 1,
		Dropped:  l.dropped,
		Buffered: l.n,
		Capacity: len(l.buf),
	}
}
