package athena

// Observability must never perturb what it observes: enabling the obs
// metrics registry and span timeline cannot change a single experiment
// digest. This is the acceptance-criteria test for the obs layer — it
// sweeps the ENTIRE registry twice, instrumentation off then on, and
// requires byte-identical artifacts, while also proving the instrumented
// sweep really re-executed (the shared pool is flushed in between, and
// the counters and timeline must show activity).

import (
	"bytes"
	"context"
	"testing"

	"athena/internal/experiment"
	"athena/internal/obs"
	"athena/internal/runner"
)

func TestDigestsUnchangedByObservability(t *testing.T) {
	sel, err := experiment.Select(experiment.Selection{})
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Seed: 1, Scale: 0.05}
	ctx := context.Background()

	obs.Disable()
	base := experiment.Sweep(ctx, sel, experiment.SweepConfig{Options: opts, Parallel: 2})

	// The shared scenario pool memoizes by config; without a flush the
	// instrumented sweep would just recall cached Results and this test
	// would be vacuous.
	runner.Default.Flush()

	obs.Enable()
	tl := obs.NewTracer()
	obs.SetTimeline(tl)
	defer func() {
		obs.SetTimeline(nil)
		obs.Disable()
	}()
	instr := experiment.Sweep(ctx, sel, experiment.SweepConfig{Options: opts, Parallel: 2})

	if len(base) != len(instr) || len(base) == 0 {
		t.Fatalf("sweep sizes differ: %d vs %d", len(base), len(instr))
	}
	for i := range base {
		if base[i].Err != nil || instr[i].Err != nil {
			t.Fatalf("%s errored: %v / %v", base[i].Experiment.ID, base[i].Err, instr[i].Err)
		}
		if base[i].Digest != instr[i].Digest {
			t.Errorf("%s digest changed under instrumentation: %.12s vs %.12s",
				base[i].Experiment.ID, base[i].Digest, instr[i].Digest)
		}
	}
	if diffs := experiment.DiffDigests(experiment.NewManifest(opts, base), experiment.NewManifest(opts, instr)); len(diffs) != 0 {
		t.Fatalf("manifests diverge under instrumentation: %v", diffs)
	}

	// Non-vacuity: the instrumented sweep must have recorded real work.
	snap := obs.TakeSnapshot()
	if snap.Counters["sim.events_fired"] == 0 {
		t.Fatal("instrumented sweep fired no sim events — was the pool flushed?")
	}
	if snap.Counters["runner.default.memo_misses"] == 0 {
		t.Fatal("instrumented sweep hit only memoized results")
	}
	// Every feedback report finds its packets in the sender's send
	// history: the ring never overwrote a packet still awaiting feedback.
	if n, ok := snap.Counters["cc.history_misses"]; !ok || n != 0 {
		t.Fatalf("cc.history_misses = %d (registered: %v), want 0", n, ok)
	}
	spans := tl.Snapshot()
	expSpans := 0
	for _, s := range spans {
		if len(s.Name) > 4 && s.Name[:4] == "exp:" {
			expSpans++
		}
	}
	if expSpans != len(sel) {
		t.Fatalf("timeline has %d experiment spans, want %d", expSpans, len(sel))
	}

	// The same registry state must also render as well-formed Prometheus
	// exposition: whatever an instrumented sweep accumulates, /metrics
	// has to lint under the in-repo parser, and the counters asserted
	// above must survive the name mapping.
	var prom bytes.Buffer
	if err := obs.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	pt, err := obs.ParsePrometheus(&prom)
	if err != nil {
		t.Fatalf("instrumented exposition does not lint: %v", err)
	}
	if pt.Families[obs.PromName("sim.events_fired")] == nil {
		t.Fatalf("exposition lost sim.events_fired (%d families)", len(pt.Families))
	}
}
