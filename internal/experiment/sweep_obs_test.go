package experiment

import (
	"context"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"athena/internal/obs"
	"athena/internal/stats"
)

// fastExperiments builds n trivial deterministic experiments (IDs A1,
// B1, ...) whose figures depend only on (id, options).
func fastExperiments(n int) []Experiment {
	es := make([]Experiment, n)
	for i := range es {
		id := string(rune('A'+i)) + "1"
		es[i] = Experiment{ID: id, Family: "test", Plan: renderOnly(func(o Options) *FigureData {
			f := New(id, "t-"+id)
			f.Add("line", []stats.Point{{X: 1, Y: float64(o.SeedOrDefault())}})
			return f
		})}
	}
	return es
}

// useTimeline installs tr as the global timeline Sweep reports to, and
// removes it when the test ends.
func useTimeline(t *testing.T, tr *obs.Tracer) {
	obs.SetTimeline(tr)
	t.Cleanup(func() { obs.SetTimeline(nil) })
}

// goldenSweepTrace is the Chrome trace of a 2-experiment sweep of
// render-only plans under a deterministic clock that advances 1 ms per
// reading: renders run one after another on the sweep's goroutine, each
// experiment's span takes two readings (begin, end), so the spans tile
// [1,2] and [3,4] ms on their own tracks.
const goldenSweepTrace = `{
  "traceEvents": [
    {
      "name": "exp:A1",
      "ph": "X",
      "ts": 1000,
      "dur": 1000,
      "pid": 1,
      "tid": 1
    },
    {
      "name": "exp:B1",
      "ph": "X",
      "ts": 3000,
      "dur": 1000,
      "pid": 1,
      "tid": 2
    }
  ]
}
`

func TestSweepChromeTraceGolden(t *testing.T) {
	var ticks atomic.Int64
	tr := obs.NewTracerClock(func() time.Duration {
		return time.Duration(ticks.Add(1)) * time.Millisecond
	})
	useTimeline(t, tr)
	results := Sweep(context.Background(), fastExperiments(2), SweepConfig{})
	for _, r := range results {
		if r.Err != nil || r.Skipped {
			t.Fatalf("sweep failed: %+v", r)
		}
	}
	var b strings.Builder
	if err := tr.WriteChromeTrace(&b); err != nil {
		t.Fatal(err)
	}
	if b.String() != goldenSweepTrace {
		t.Fatalf("sweep chrome trace drifted from golden:\n%s", b.String())
	}
}

// TestSweepSpansParallel runs a sweep whose experiments' runs share the
// batch, under the race detector: every experiment must contribute
// exactly one intact span, opened by whichever worker starts its first
// run and closed after its render, regardless of worker interleaving.
func TestSweepSpansParallel(t *testing.T) {
	tr := obs.NewTracer()
	useTimeline(t, tr)
	exps := append(runExperiments(6, 2, nil), fastExperiments(8)[6:]...)
	Sweep(context.Background(), exps, SweepConfig{})

	// The runs open spans of their own; the experiments' are the exp:
	// roots.
	var spans []obs.SpanRecord
	for _, s := range tr.Snapshot() {
		if strings.HasPrefix(s.Name, "exp:") {
			spans = append(spans, s)
		}
	}
	if len(spans) != len(exps) {
		t.Fatalf("got %d experiment spans, want %d", len(spans), len(exps))
	}
	seen := map[string]bool{}
	for _, s := range spans {
		if s.Parent != 0 || s.End < s.Start {
			t.Fatalf("corrupt span: %+v", s)
		}
		if seen[s.Name] {
			t.Fatalf("duplicate span %s", s.Name)
		}
		seen[s.Name] = true
	}
	for _, e := range exps {
		if !seen["exp:"+e.ID] {
			t.Fatalf("no span for %s", e.ID)
		}
	}
}

// TestSweepRecordsQueueWait checks the manifest sees a nonzero per-
// experiment queue wait and that it is excluded from Wall.
func TestSweepRecordsQueueWait(t *testing.T) {
	results := Sweep(context.Background(), append(runExperiments(2, 2, nil), fastExperiments(3)[2:]...), SweepConfig{})
	for i, r := range results {
		if r.QueueWait < 0 {
			t.Fatalf("slot %d queue wait negative: %v", i, r.QueueWait)
		}
	}
	m := NewManifest(Options{}, results)
	for i, e := range m.Experiments {
		if e.QueueWaitMS < 0 {
			t.Fatalf("entry %d queue_wait_ms negative: %v", i, e.QueueWaitMS)
		}
	}
	if m.Schema != ManifestSchema {
		t.Fatalf("manifest schema = %d, want %d", m.Schema, ManifestSchema)
	}
}
