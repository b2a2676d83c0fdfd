package experiment

import (
	"context"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"athena/internal/scenario"
	"athena/internal/stats"
)

// renderOnly is the plan of an experiment that runs no simulation.
func renderOnly(render func(Options) *FigureData) func(Options) Plan {
	return func(o Options) Plan { return Plan{Render: func() *FigureData { return render(o) }} }
}

// tinyRun is a short real single-UE run, distinct per seed.
func tinyRun(seed int64) scenario.Topology {
	cfg := scenario.Defaults()
	cfg.Seed = seed
	cfg.Duration = 100 * time.Millisecond
	return scenario.SingleUE(cfg)
}

// runExperiments builds n experiments (IDs A1, B1, …) of runsEach tiny
// runs each; experiment k's run j has seed 1+k*runsEach+j, shifted by
// Options.Seed, so every run is distinct. Each figure records what its
// folds saw, so it depends on the results, not on scheduling. onFold,
// when set, is called inside every fold.
func runExperiments(n, runsEach int, onFold func()) []Experiment {
	es := make([]Experiment, n)
	for k := range es {
		id := string(rune('A'+k)) + "1"
		base := int64(1 + k*runsEach)
		es[k] = Experiment{ID: id, Family: "test", Tags: []string{"test"}, Plan: func(o Options) Plan {
			tops := make([]scenario.Topology, runsEach)
			for j := range tops {
				tops[j] = tinyRun(o.SeedOrDefault()*1000 + base + int64(j))
			}
			packets := make([]float64, runsEach)
			return Plan{
				Runs: tops,
				Fold: func(j int, r *scenario.TopologyResult) {
					if onFold != nil {
						onFold()
					}
					packets[j] = float64(len(r.UEs[0].Report.Packets))
				},
				Render: func() *FigureData {
					f := New(id, "t-"+id)
					f.Scalars["seed"] = float64(o.SeedOrDefault())
					pts := make([]stats.Point, runsEach)
					for j, p := range packets {
						pts[j] = stats.Point{X: float64(j), Y: p}
					}
					f.Add("packets per run", pts)
					return f
				},
			}
		}}
	}
	return es
}

// TestSweepOrderedAndDigestStableAcrossParallel holds a sweep's output
// to its plans alone: every experiment renders the same digest whether
// its runs share the batch with the others (the bare sweep), run by
// themselves (alone), or land in another order (reversed), and results
// and OnResult calls come back in input order.
func TestSweepOrderedAndDigestStableAcrossParallel(t *testing.T) {
	exps := runExperiments(4, 3, nil)
	// One experiment that only repeats another's runs: the batch
	// simulates them once and both fold the same results.
	twin := exps[1]
	twin.ID = "Z1"
	exps = append(exps, twin)
	opts := Options{Seed: 9, Scale: 1}

	var streamed []string
	bare := Sweep(context.Background(), exps, SweepConfig{Options: opts,
		OnResult: func(i int, r RunResult) {
			if i != len(streamed) {
				t.Errorf("OnResult out of order: got index %d at position %d", i, len(streamed))
			}
			streamed = append(streamed, r.Digest)
		}})
	if len(bare) != len(exps) || len(streamed) != len(exps) {
		t.Fatalf("result counts: %d %d", len(bare), len(streamed))
	}
	byID := map[string]string{}
	for i, r := range bare {
		if r.Experiment.ID != exps[i].ID {
			t.Fatalf("slot %d holds %s, want input order", i, r.Experiment.ID)
		}
		if r.Digest != streamed[i] {
			t.Fatalf("streamed digest %d mismatches returned slice", i)
		}
		if r.Digest != Digest(r.Rendered) || r.Rendered == "" {
			t.Fatalf("%s digest is not the hash of the rendered text", r.Experiment.ID)
		}
		if !strings.Contains(r.Rendered, "seed = 9.000") {
			t.Fatalf("%s did not render from the sweep options:\n%s", r.Experiment.ID, r.Rendered)
		}
		byID[r.Experiment.ID] = r.Digest
	}
	if bare[1].Figure.Series[0].Points[0].Y == 0 {
		t.Fatal("folds saw no packets")
	}

	reversed := make([]Experiment, len(exps))
	for i, e := range exps {
		reversed[len(exps)-1-i] = e
	}
	rows := map[string][]RunResult{"reversed": Sweep(context.Background(), reversed, SweepConfig{Options: opts})}
	for _, e := range exps {
		rows["alone"] = append(rows["alone"], Sweep(context.Background(), []Experiment{e}, SweepConfig{Options: opts})...)
	}
	for name, rs := range rows {
		for _, r := range rs {
			if r.Digest != byID[r.Experiment.ID] {
				t.Errorf("%s: %s digest %.12s, the bare sweep's %.12s", name, r.Experiment.ID, r.Digest, byID[r.Experiment.ID])
			}
		}
	}
}

// TestSweepParallelismBounded: a sweep is one batch on the shared pool.
// Folds run on its workers, so at most GOMAXPROCS run at once, and runs
// of different experiments overlap — one-run experiments swept one after
// another never would.
func TestSweepParallelismBounded(t *testing.T) {
	var running, peak atomic.Int32
	exps := runExperiments(8, 1, func() {
		cur := running.Add(1)
		for {
			p := peak.Load()
			if cur <= p || peak.CompareAndSwap(p, cur) {
				break
			}
		}
		time.Sleep(20 * time.Millisecond)
		running.Add(-1)
	})
	Sweep(context.Background(), exps, SweepConfig{})
	workers := int32(runtime.GOMAXPROCS(0))
	p := peak.Load()
	if p > workers {
		t.Fatalf("peak concurrent folds = %d, want at most %d", p, workers)
	}
	if workers >= 2 && p < 2 {
		t.Fatalf("peak concurrent folds = %d: experiments' runs did not share the batch", p)
	}
}

func TestSweepCancellationSkips(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	exps := append(runExperiments(2, 2, nil), fastExperiments(2)...)
	results := Sweep(ctx, exps, SweepConfig{OnResult: func(int, RunResult) {
		t.Error("OnResult fired for a cancelled sweep")
	}})
	for i, r := range results {
		if !r.Skipped || r.Err == nil {
			t.Fatalf("slot %d not marked skipped: %+v", i, r)
		}
		if r.Experiment.ID != exps[i].ID {
			t.Fatalf("slot %d lost its experiment identity", i)
		}
	}
}

// TestSweepCancelMidBatch cancels a sweep from inside its batch: the
// first experiment's only fold cancels. Experiments with runs left
// unfolded come back Skipped with the context error and never reach
// OnResult, and the sweep leaves no goroutine behind.
func TestSweepCancelMidBatch(t *testing.T) {
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	release := make(chan struct{})
	first := runExperiments(1, 1, func() {
		cancel()
		close(release)
	})
	// The other experiments' folds wait for the cancellation, so none of
	// their runs can land before it, and they have more runs than the pool
	// has workers, so some never start.
	rest := runExperiments(3, runtime.GOMAXPROCS(0)+2, func() { <-release })[1:]
	exps := append(first, rest...)
	results := Sweep(ctx, exps, SweepConfig{OnResult: func(i int, r RunResult) {
		if i > 0 {
			t.Errorf("OnResult fired for %s after the cancellation", r.Experiment.ID)
		}
	}})
	for _, r := range results[1:] {
		if !r.Skipped || r.Err != context.Canceled {
			t.Errorf("%s: skipped=%t err=%v, want skipped with %v", r.Experiment.ID, r.Skipped, r.Err, context.Canceled)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("%d goroutines after the sweep, %d before", n, before)
	}
}

func TestSweepSavesArtifacts(t *testing.T) {
	exps := runExperiments(2, 1, nil)
	dir := t.TempDir()
	results := Sweep(context.Background(), exps, SweepConfig{OutDir: dir})
	for _, r := range results {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
		if len(r.Artifacts) != 2 {
			t.Fatalf("%s artifacts = %v", r.Experiment.ID, r.Artifacts)
		}
		for _, p := range r.Artifacts {
			if !strings.HasPrefix(p, dir) || !strings.Contains(p, strings.ToLower(r.Experiment.ID)) {
				t.Fatalf("artifact path %q not keyed off registry identity", p)
			}
		}
	}
}

// TestGenerateMatchesSweep: the single-plan entry point renders what the
// sweep renders.
func TestGenerateMatchesSweep(t *testing.T) {
	opts := Options{Seed: 2}
	for _, e := range runExperiments(2, 2, nil) {
		swept := Sweep(context.Background(), []Experiment{e}, SweepConfig{Options: opts})[0]
		if got := Generate(e.Plan(opts)).Digest(); got != swept.Digest {
			t.Fatalf("%s: Generate digest %.12s, Sweep %.12s", e.ID, got, swept.Digest)
		}
	}
}
