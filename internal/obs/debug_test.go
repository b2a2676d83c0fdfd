package obs

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
)

// varsSnapshot serves /debug/vars through h and decodes the
// "athena.metrics" variable back into a Snapshot.
func varsSnapshot(t *testing.T, rrBody string) Snapshot {
	t.Helper()
	var vars map[string]json.RawMessage
	if err := json.Unmarshal([]byte(rrBody), &vars); err != nil {
		t.Fatalf("bad /debug/vars payload: %v", err)
	}
	raw, ok := vars["athena.metrics"]
	if !ok {
		t.Fatal("athena.metrics not published")
	}
	var s Snapshot
	if err := json.Unmarshal(raw, &s); err != nil {
		t.Fatalf("bad athena.metrics payload: %v", err)
	}
	return s
}

// TestDebugHandlerRepublishAfterFlush is the regression test for the
// sync.Once publication bug: a second server (or test) building its own
// DebugHandler in the same process must neither panic on the duplicate
// expvar name nor serve the snapshot taken before a ResetAll.
func TestDebugHandlerRepublishAfterFlush(t *testing.T) {
	Enable()
	defer Disable()
	c := NewCounter("debugtest.republish")
	defer UnregisterPrefix("debugtest.republish")

	c.Add(41)
	h1 := DebugHandler()
	rr := httptest.NewRecorder()
	h1.ServeHTTP(rr, httptest.NewRequest("GET", "/debug/vars", nil))
	if got := varsSnapshot(t, rr.Body.String()).Counters["debugtest.republish"]; got != 41 {
		t.Fatalf("first server sees %d, want 41", got)
	}

	if got := TakeSnapshot().Counters["debugtest.republish"]; got != 41 {
		t.Fatalf("final snapshot lost the value: %d", got)
	}
	ResetAll()

	// Second server in the same process: must not panic, must serve the
	// reset (live) state, not a stale capture from before the reset.
	h2 := DebugHandler()
	c.Add(1)
	rr = httptest.NewRecorder()
	h2.ServeHTTP(rr, httptest.NewRequest("GET", "/debug/vars", nil))
	if got := varsSnapshot(t, rr.Body.String()).Counters["debugtest.republish"]; got != 1 {
		t.Fatalf("second server serves stale snapshot: %d, want 1", got)
	}
}

func TestDebugHandlerConcurrentBuildNoPanic(t *testing.T) {
	done := make(chan struct{})
	for i := 0; i < 8; i++ {
		go func() {
			defer func() { done <- struct{}{} }()
			DebugHandler()
		}()
	}
	for i := 0; i < 8; i++ {
		<-done
	}
}

func TestUnregisterPrefix(t *testing.T) {
	Enable()
	defer Disable()
	NewCounter("session.s1.ingest")
	NewGauge("session.s1.pending")
	NewHistogram("session.s1.ingest_ns")
	keep := NewCounter("session.s2.ingest")
	keep.Add(3)

	if n := UnregisterPrefix("session.s1."); n != 3 {
		t.Fatalf("dropped %d entries, want 3", n)
	}
	defer UnregisterPrefix("session.s2.")
	s := TakeSnapshot()
	for name := range s.Counters {
		if strings.HasPrefix(name, "session.s1.") {
			t.Fatalf("s1 counter survived: %s", name)
		}
	}
	if _, ok := s.Histograms["session.s1.ingest_ns"]; ok {
		t.Fatal("s1 histogram survived")
	}
	if s.Counters["session.s2.ingest"] != 3 {
		t.Fatal("unrelated session's metric disturbed")
	}
	if UnregisterPrefix("session.s1.") != 0 {
		t.Fatal("double unregister reported a removal")
	}
}

func TestFlushZeroesEverything(t *testing.T) {
	Enable()
	defer Disable()
	c := NewCounter("flushtest.c")
	g := NewGauge("flushtest.g")
	h := NewHistogram("flushtest.h")
	defer UnregisterPrefix("flushtest.")
	c.Add(7)
	g.Set(9)
	h.Observe(100)

	s := TakeSnapshot()
	if s.Counters["flushtest.c"] != 7 || s.Gauges["flushtest.g"] != 9 || s.Histograms["flushtest.h"].Count != 1 {
		t.Fatalf("snapshot incomplete: %+v", s)
	}
	ResetAll()
	after := TakeSnapshot()
	if after.Counters["flushtest.c"] != 0 || after.Gauges["flushtest.g"] != 0 || after.Histograms["flushtest.h"].Count != 0 {
		t.Fatalf("metrics not zeroed after ResetAll: %+v", after)
	}
	// Instances stay live: recording after ResetAll re-accumulates.
	c.Inc()
	if TakeSnapshot().Counters["flushtest.c"] != 1 {
		t.Fatal("registration lost across ResetAll")
	}
}
