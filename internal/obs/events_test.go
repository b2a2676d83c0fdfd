package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// tickTimeClock is the injectable deterministic wall clock: every call
// advances one millisecond from the epoch.
func tickTimeClock() func() time.Time {
	var n int64
	return func() time.Time {
		n++
		return time.Unix(0, n*int64(time.Millisecond))
	}
}

// TestEventLogGoldenJSONL pins the wire format byte for byte: with the
// tick clock, the JSONL sink output is fully deterministic.
func TestEventLogGoldenJSONL(t *testing.T) {
	l := NewEventLog(8)
	l.SetClock(tickTimeClock())
	var sink bytes.Buffer
	l.SetSink(&sink)

	l.Emit(Event{Type: "session.create", Session: "s1", Cell: "cell0", Family: "vca"})
	l.Emit(Event{Type: "session.backpressure", Session: "s1", Value: 65536})
	l.Emit(Event{Type: "session.close", Session: "s1", Detail: "ab12", Value: 100})

	want := strings.Join([]string{
		`{"seq":1,"time_unix_nano":1000000,"type":"session.create","session":"s1","cell":"cell0","family":"vca"}`,
		`{"seq":2,"time_unix_nano":2000000,"type":"session.backpressure","session":"s1","value":65536}`,
		`{"seq":3,"time_unix_nano":3000000,"type":"session.close","session":"s1","detail":"ab12","value":100}`,
		``,
	}, "\n")
	if got := sink.String(); got != want {
		t.Fatalf("JSONL sink diverged:\n got: %q\nwant: %q", got, want)
	}
	if err := l.SinkErr(); err != nil {
		t.Fatal(err)
	}

	// Each line decodes back to the emitted event.
	var e Event
	if err := json.Unmarshal([]byte(strings.Split(sink.String(), "\n")[1]), &e); err != nil {
		t.Fatal(err)
	}
	if e.Seq != 2 || e.Type != "session.backpressure" || e.Value != 65536 {
		t.Fatalf("decoded %+v", e)
	}
}

func TestEventLogSinceAndRingBound(t *testing.T) {
	l := NewEventLog(4)
	l.SetClock(tickTimeClock())
	for i := 0; i < 10; i++ {
		l.Emit(Event{Type: fmt.Sprintf("e%d", i)})
	}
	st := l.Stats()
	if st.Emitted != 10 || st.Buffered != 4 || st.Capacity != 4 || st.Dropped != 6 {
		t.Fatalf("stats %+v", st)
	}

	// From zero: the first six are gone, the remaining four arrive in order.
	evs, dropped, next := l.Since(0, 0)
	if dropped != 6 || len(evs) != 4 || next != 10 {
		t.Fatalf("since(0): %d events, %d dropped, next %d", len(evs), dropped, next)
	}
	for i, e := range evs {
		if e.Seq != uint64(7+i) || e.Type != fmt.Sprintf("e%d", 6+i) {
			t.Fatalf("event %d: %+v", i, e)
		}
	}

	// Pagination: max=2 twice walks the same window.
	evs1, _, next1 := l.Since(6, 2)
	evs2, d2, next2 := l.Since(next1, 2)
	if len(evs1) != 2 || len(evs2) != 2 || d2 != 0 || next2 != 10 {
		t.Fatalf("pagination: %d+%d events, next %d/%d, dropped %d", len(evs1), len(evs2), next1, next2, d2)
	}
	if evs1[0].Seq != 7 || evs2[1].Seq != 10 {
		t.Fatalf("pagination seqs: %d..%d", evs1[0].Seq, evs2[1].Seq)
	}

	// Caught up: nothing to return, next stays put.
	if evs, dropped, next := l.Since(10, 0); len(evs) != 0 || dropped != 0 || next != 10 {
		t.Fatalf("caught-up since: %d events, %d dropped, next %d", len(evs), dropped, next)
	}
	// A consumer ahead of the log (stale server restart) is not rewound.
	if _, _, next := l.Since(99, 0); next != 99 {
		t.Fatalf("ahead-of-log next = %d, want 99", next)
	}
}

func TestEventLogChangedWakesWaiters(t *testing.T) {
	l := NewEventLog(4)
	ch := l.Changed()
	select {
	case <-ch:
		t.Fatal("notify channel closed before any emission")
	default:
	}
	done := make(chan Event, 1)
	go func() {
		<-ch
		evs, _, _ := l.Since(0, 0)
		done <- evs[0]
	}()
	l.Emit(Event{Type: "wake"})
	select {
	case e := <-done:
		if e.Type != "wake" || e.Seq != 1 {
			t.Fatalf("waiter saw %+v", e)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("waiter never woke")
	}
}

// A nil *EventLog is inert: emissions are discarded, queries are empty,
// and nothing panics — producers do not need to guard emission sites.
func TestEventLogNilSafe(t *testing.T) {
	var l *EventLog
	if seq := l.Emit(Event{Type: "x"}); seq != 0 {
		t.Fatalf("nil emit returned seq %d", seq)
	}
	if evs, dropped, next := l.Since(0, 0); evs != nil || dropped != 0 || next != 0 {
		t.Fatal("nil Since returned data")
	}
	if st := l.Stats(); st != (EventLogStats{}) {
		t.Fatalf("nil stats %+v", st)
	}
	if err := l.SinkErr(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-l.Changed():
		t.Fatal("nil Changed is ready: a long-poll on it would spin until its deadline")
	default:
	}
}

// TestEventLogConcurrent exercises the lock contract under -race:
// parallel emitters, a paginating reader, and a stats poller.
func TestEventLogConcurrent(t *testing.T) {
	l := NewEventLog(64)
	const emitters, perEmitter = 4, 500
	var wg sync.WaitGroup
	for g := 0; g < emitters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perEmitter; i++ {
				l.Emit(Event{Type: "concurrent", Value: int64(g)})
			}
		}(g)
	}
	stop := make(chan struct{})
	var readerWG sync.WaitGroup
	readerWG.Add(1)
	go func() {
		defer readerWG.Done()
		var since uint64
		var got int64
		for {
			evs, dropped, next := l.Since(since, 16)
			got += int64(len(evs)) + dropped
			var last uint64
			for _, e := range evs {
				if e.Seq <= last {
					t.Errorf("non-monotonic seqs %d after %d", e.Seq, last)
					return
				}
				last = e.Seq
			}
			since = next
			select {
			case <-stop:
				if got == emitters*perEmitter {
					return
				}
			default:
			}
			_ = l.Stats()
		}
	}()
	wg.Wait()
	close(stop)
	readerWG.Wait()
	st := l.Stats()
	if st.Emitted != emitters*perEmitter {
		t.Fatalf("emitted %d, want %d", st.Emitted, emitters*perEmitter)
	}
	if st.Dropped+int64(st.Buffered) != int64(st.Emitted) {
		t.Fatalf("accounting broken: %+v", st)
	}
}
