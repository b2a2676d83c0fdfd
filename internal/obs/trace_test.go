package obs

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// tickClock is a deterministic span clock: every read advances time by
// one millisecond, so span layouts are reproducible across runs.
func tickClock() func() time.Duration {
	var t atomic.Int64
	return func() time.Duration {
		return time.Duration(t.Add(1)) * time.Millisecond
	}
}

func TestNilTracerInert(t *testing.T) {
	var tr *Tracer
	s := tr.Begin("x", 0)
	if s.ID() != 0 {
		t.Fatal("nil tracer issued a span ID")
	}
	s.Child("y").End()
	s.End()
	if tr.Snapshot() != nil || tr.Dropped() != 0 {
		t.Fatal("nil tracer recorded state")
	}
}

func TestStartSpanNoTimelineNoAllocs(t *testing.T) {
	SetTimeline(nil)
	if n := testing.AllocsPerRun(1000, func() {
		s := StartSpan("hot")
		s.End()
	}); n != 0 {
		t.Fatalf("StartSpan with no timeline allocates %.1f/op", n)
	}
}

func TestSpanRecordingAndParentLinks(t *testing.T) {
	tr := NewTracerClock(tickClock())
	root := tr.Begin("root", 0)
	child := root.Child("child")
	grand := child.Child("grand")
	grand.End()
	child.End()
	root.End()

	spans := tr.Snapshot()
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(spans))
	}
	// Snapshot sorts by (start, ID): root started first, then child,
	// then grand.
	if spans[0].Name != "root" || spans[1].Name != "child" || spans[2].Name != "grand" {
		t.Fatalf("span order = %v", spans)
	}
	if spans[0].Parent != 0 || spans[1].Parent != spans[0].ID || spans[2].Parent != spans[1].ID {
		t.Fatalf("parent links broken: %+v", spans)
	}
	for _, s := range spans {
		if s.End <= s.Start {
			t.Fatalf("span %s has non-positive duration: %+v", s.Name, s)
		}
	}
}

func TestTracerMaxSpansDrops(t *testing.T) {
	tr := NewTracerClock(tickClock())
	tr.MaxSpans = 2
	for i := 0; i < 5; i++ {
		tr.Begin("s", 0).End()
	}
	if n := len(tr.Snapshot()); n != 2 {
		t.Fatalf("kept %d spans, want 2", n)
	}
	if d := tr.Dropped(); d != 3 {
		t.Fatalf("dropped = %d, want 3", d)
	}
}

// TestTracerConcurrentSpans drives parallel workers through one tracer
// under the race detector: every span must come out intact (matched
// name/parent, positive duration, unique ID) regardless of interleaving.
func TestTracerConcurrentSpans(t *testing.T) {
	tr := NewTracer()
	const workers, perWorker = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				root := tr.Begin("worker", 0)
				child := root.Child("stage")
				child.End()
				root.End()
			}
		}(w)
	}
	wg.Wait()

	spans := tr.Snapshot()
	if len(spans) != workers*perWorker*2 {
		t.Fatalf("got %d spans, want %d", len(spans), workers*perWorker*2)
	}
	ids := make(map[SpanID]string, len(spans))
	for _, s := range spans {
		if _, dup := ids[s.ID]; dup {
			t.Fatalf("duplicate span ID %d", s.ID)
		}
		ids[s.ID] = s.Name
		if s.End < s.Start {
			t.Fatalf("span %d ends before it starts: %+v", s.ID, s)
		}
	}
	for _, s := range spans {
		switch s.Name {
		case "worker":
			if s.Parent != 0 {
				t.Fatalf("root span has parent: %+v", s)
			}
		case "stage":
			if ids[s.Parent] != "worker" {
				t.Fatalf("child span's parent is %q: %+v", ids[s.Parent], s)
			}
		default:
			t.Fatalf("corrupt span name %q", s.Name)
		}
	}
}

const goldenChromeTrace = `{
  "traceEvents": [
    {
      "name": "root",
      "ph": "X",
      "ts": 1000,
      "dur": 5000,
      "pid": 1,
      "tid": 1
    },
    {
      "name": "stage",
      "ph": "X",
      "ts": 2000,
      "dur": 1000,
      "pid": 1,
      "tid": 1,
      "args": {
        "parent": 1
      }
    },
    {
      "name": "other",
      "ph": "X",
      "ts": 4000,
      "dur": 1000,
      "pid": 1,
      "tid": 3
    }
  ]
}
`

func TestWriteChromeTraceGolden(t *testing.T) {
	tr := NewTracerClock(tickClock())
	root := tr.Begin("root", 0)  // start 1ms
	stage := root.Child("stage") // start 2ms
	stage.End()                  // end 3ms
	other := tr.Begin("other", 0)
	other.End()
	root.End()

	var b strings.Builder
	if err := tr.WriteChromeTrace(&b); err != nil {
		t.Fatal(err)
	}
	if b.String() != goldenChromeTrace {
		t.Fatalf("chrome trace drifted from golden:\n%s", b.String())
	}
}

func TestGlobalTimeline(t *testing.T) {
	tr := NewTracerClock(tickClock())
	SetTimeline(tr)
	defer SetTimeline(nil)
	s := StartSpan("global")
	s.End()
	spans := tr.Snapshot()
	if len(spans) != 1 || spans[0].Name != "global" {
		t.Fatalf("global span not recorded: %+v", spans)
	}
}
