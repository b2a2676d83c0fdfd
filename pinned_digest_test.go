package athena

// The registry's behavioural contract, as one table. A bare sweep at
// Options{Seed: 1, Scale: 0.02} must reproduce the id → digest map below
// (recorded at commit fadc9a7; amd64 only, ROADMAP item 14), and every
// row re-sweeps under one condition — each artifact swept alone, the
// selection in reverse order, each artifact's exported driver called
// directly, the obs metrics and span timeline switched on, the result
// store cold, warm and after every entry is corrupted — and must
// reproduce the bare sweep digest for digest. The shared
// scenario pool keeps no run past its folds (the bare sweep checks it is
// empty once it returns), so every row recomputes what it does not
// recall from the store.
// The store rows run in order on one store. A PR that means to change
// an artifact updates its literal and says why; any other diff here is
// a behaviour change nobody asked for.

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"athena/internal/experiment"
	"athena/internal/obs"
	"athena/internal/runner"
	"athena/internal/scenario"
	"athena/internal/store"
)

var pinnedDigests = map[string]string{
	"F3":  "ecdcac6c13a0e2cb043877bee2d2fd8f787d9a708241f3c0aceea4b68821de47",
	"F4":  "6de99eaa2e5ae32c5a0586dcf6afeb7c960f1aa54e06ed09a6fa19f940a7b3e3",
	"F5":  "15902bbbc57b810f4bc8aff0764c4347aa59fb53effd58eaa3f261a4c7d0844d",
	"F6":  "7a0417ca70eec10b831e2a62065ce79b52a5cc3f3bfa5b7498cd07cd91b7d5a5",
	"F7":  "e04f655cfa1ec95424ec89ea5bf301eee291b5075e835cc5fc269f8d1eb2239e",
	"F8":  "8be2de813f3c584b8ac453abda9a95c38b5f8f2dca1038792883f09ce500a464",
	"F9a": "aa6053b841dbbb9f7c256a7af5769459b047a875f847f451728b7db1a4bf07fa",
	"F9b": "0c5040907c57a6f3128f1745dac806952257bf0dfcdfc2bc8bfb616d76a101f6",
	"F10": "744649d27c779e255aabdce024fa85feb827329e5c93d52a2c4415417a29ba65",
	"M1":  "c20e5b106f00082cc3ee52935b113ac6bb9f77941857a97d11b5a1f3a2871091",
	"M2":  "a96b567cd2ad3df4ba13771402e48157d7f8c247a341e03c9b1f6cc667ef087f",
	"M3":  "0d47bcbda114da372603fa02b8fc9640fd51f8342932d96360a0a843f8466091",
	"M4":  "78b77fad7ab26de1be6215bdd47a625b7ac4348e4683bf86bf8f36e33410ac08",
	"A1":  "f7a5d8495693d312f9fa80b2fcf84e6764403f031573044e2246e0e4df764ac1",
	"A2":  "1e39354eeb3aad6a4a0d413a29fbe6b17426e35d5ae612573d5015a1957a0d50",
	"A3":  "2c118977151b44d9e30632e8c9a8d9c496633125e60878d2118483f0270e9f27",
	"A4":  "dfd489bcb57c8fc61b1f07416c03005e96689fd91eefef44933332bbd24b4aec",
	"S1":  "f71c0a480e20e16341a663f3ceae6abb0b5b585a0d42e9d8f1f931a99a4ca964",
	"S2":  "a25e59d4a750c298b41329c2ee04240ab1ed7f14f244260d41487f2debdfbdb2",
	"S3":  "f47c8f54cf8d5926cae900d9fce6960890eedc88b19ff9b569d1a3a2177bec46",
	"S4":  "b4106c6a3d9e700d44e6f975ce0db5e0e3f4215151bc37a1dac315530c6199ae",
	"S8":  "4349d3ab4bb8f8a36cbf2496e54060a05c3f73e6222b5d595293ddcbe53d06f8",
	"S9":  "47ab771a1fb3ffcd44c815fd5184105a7291cad6ab45bab25ef3d2a230652d9c",
}

func TestRegistryDigestsPinned(t *testing.T) {
	sel, err := experiment.Select(experiment.Selection{})
	if err != nil {
		t.Fatal(err)
	}
	if len(sel) != len(pinnedDigests) {
		t.Fatalf("registry has %d experiments, %d digests pinned", len(sel), len(pinnedDigests))
	}
	opts := Options{Seed: 1, Scale: 0.02}
	sweepOf := func(t *testing.T, exps []Experiment, cfg experiment.SweepConfig) []experiment.RunResult {
		t.Helper()
		cfg.Options = opts
		rs := experiment.Sweep(context.Background(), exps, cfg)
		if len(rs) != len(exps) {
			t.Fatalf("sweep returned %d results for %d experiments", len(rs), len(exps))
		}
		for _, r := range rs {
			if r.Err != nil {
				t.Fatalf("%s errored: %v", r.Experiment.ID, r.Err)
			}
		}
		return rs
	}
	sweep := func(t *testing.T, cfg experiment.SweepConfig) []experiment.RunResult {
		t.Helper()
		return sweepOf(t, sel, cfg)
	}

	bare := sweep(t, experiment.SweepConfig{})
	for _, r := range bare {
		id := r.Experiment.ID
		// The sweep renders what the registered generator returns.
		if f := r.Figure; f.ID != id || f.Title != r.Experiment.Title || f.String() != r.Rendered || experiment.Digest(r.Rendered) != r.Digest {
			t.Errorf("%s: figure %q %q does not render to the swept bytes and digest", id, f.ID, f.Title)
		}
		if runtime.GOARCH == "amd64" && r.Digest != pinnedDigests[id] {
			t.Errorf("%s digest moved: %s, pinned %s", id, r.Digest, pinnedDigests[id])
		}
	}

	s, err := store.Open(t.TempDir(), store.Config{})
	if err != nil {
		t.Fatal(err)
	}
	withStore := experiment.SweepConfig{Cache: s, CacheNamespace: "digest-test"}
	n := int64(len(sel))
	// The store counts into obs counters, which count only while obs is on.
	enableObs := func(t *testing.T) {
		obs.Enable()
		t.Cleanup(obs.Disable)
	}
	var tl *obs.Tracer
	var before obs.Snapshot
	for _, row := range []struct {
		name  string
		cfg   experiment.SweepConfig
		setup func(t *testing.T)
		// sweep, when set, replaces the sweep of the selection under cfg;
		// it returns the results in selection order.
		sweep func(t *testing.T) []experiment.RunResult
		check func(t *testing.T, rs []experiment.RunResult)
	}{
		{name: "alone", sweep: func(t *testing.T) []experiment.RunResult {
			var rs []experiment.RunResult
			for _, e := range sel {
				rs = append(rs, sweepOf(t, []Experiment{e}, experiment.SweepConfig{})...)
			}
			return rs
		}},
		{name: "reversed", sweep: func(t *testing.T) []experiment.RunResult {
			rev := slices.Clone(sel)
			slices.Reverse(rev)
			rs := sweepOf(t, rev, experiment.SweepConfig{})
			slices.Reverse(rs)
			return rs
		}},
		// athena.Fig3(o), M1(o), … return what the registry sweeps.
		{name: "drivers", sweep: func(t *testing.T) []experiment.RunResult {
			var rs []experiment.RunResult
			for _, e := range sel {
				driver, ok := legacyDrivers[e.ID]
				if !ok {
					t.Fatalf("%s has no exported driver", e.ID)
				}
				f := driver(opts)
				rendered := f.String()
				rs = append(rs, experiment.RunResult{Experiment: e, Figure: f, Rendered: rendered, Digest: experiment.Digest(rendered)})
			}
			return rs
		}},
		{name: "obs", setup: func(t *testing.T) {
			enableObs(t)
			before, tl = obs.TakeSnapshot(), obs.NewTracer()
			obs.SetTimeline(tl)
			t.Cleanup(func() { obs.SetTimeline(nil) })
		}, check: func(t *testing.T, _ []experiment.RunResult) { checkObsSweep(t, before, tl, len(sel)) }},
		{name: "store-cold", cfg: withStore, setup: enableObs, check: func(t *testing.T, rs []experiment.RunResult) {
			for _, r := range rs {
				if r.Cached {
					t.Errorf("%s claims a hit on a cold store", r.Experiment.ID)
				}
			}
		}},
		{name: "store-warm", cfg: withStore, setup: enableObs, check: func(t *testing.T, rs []experiment.RunResult) {
			for _, r := range rs {
				if !r.Cached {
					t.Errorf("%s missed on a warm store", r.Experiment.ID)
				}
			}
			if st := s.Stats(); st.Hits != n || st.Writes != n {
				t.Errorf("warm store stats %+v, want %d hits and %d writes", st, n, n)
			}
		}},
		{name: "store-corrupt", cfg: withStore, setup: func(t *testing.T) {
			enableObs(t)
			if c := corruptEntries(t, s.Dir()); c != len(sel) {
				t.Fatalf("corrupted %d entries, want %d", c, len(sel))
			}
		}, check: func(t *testing.T, rs []experiment.RunResult) {
			for _, r := range rs {
				if r.Cached {
					t.Errorf("%s served from a corrupt entry", r.Experiment.ID)
				}
			}
			if got := s.Stats().Corrupt; got != n {
				t.Errorf("corrupt counter = %d, want %d", got, n)
			}
		}},
	} {
		t.Run(row.name, func(t *testing.T) {
			if row.setup != nil {
				row.setup(t)
			}
			var rs []experiment.RunResult
			if row.sweep != nil {
				rs = row.sweep(t)
			} else {
				rs = sweep(t, row.cfg)
			}
			for i, r := range rs {
				if r.Digest != bare[i].Digest {
					t.Errorf("%s digest %.12s, the bare sweep's %.12s", r.Experiment.ID, r.Digest, bare[i].Digest)
				}
			}
			if diffs := experiment.DiffDigests(experiment.NewManifest(opts, bare), experiment.NewManifest(opts, rs)); len(diffs) != 0 {
				t.Errorf("manifest diverges from the bare sweep: %v", diffs)
			}
			if row.check != nil {
				row.check(t, rs)
			}
		})
	}
}

// TestSweepSimulatesEachRunOnce: a registry sweep is one batch that
// simulates each distinct run once, counted through the pool's run
// function. Three runs repeat another artifact's — F5's is F4's, M3's
// gcc run is M2's idle gcc run, A3's bler=0 run is A2's tbs=1600 run —
// so those artifacts fold the other's result, and still render their
// pinned digests.
func TestSweepSimulatesEachRunOnce(t *testing.T) {
	sel, err := experiment.Select(experiment.Selection{})
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Seed: 1, Scale: 0.02}
	var mu sync.Mutex
	execs := map[string]int{}
	saved := runner.Default
	runner.Default = runner.NewFunc(0, func(top scenario.Topology) *scenario.TopologyResult {
		mu.Lock()
		execs[runner.Key(top)]++
		mu.Unlock()
		return scenario.RunTopology(top)
	})
	t.Cleanup(func() { runner.Default = saved })

	planned := map[string][]string{} // ID → run keys, in plan order
	distinct := map[string]bool{}
	total := 0
	for _, e := range sel {
		for _, top := range e.Plan(opts).Runs {
			k := runner.Key(top)
			planned[e.ID] = append(planned[e.ID], k)
			distinct[k] = true
			total++
		}
	}
	rs := experiment.Sweep(context.Background(), sel, experiment.SweepConfig{Options: opts})
	for k := range distinct {
		if execs[k] != 1 {
			t.Errorf("run %.12s simulated %d times, want 1", k, execs[k])
		}
	}
	if len(execs) != len(distinct) {
		t.Errorf("simulated %d distinct runs, %d planned", len(execs), len(distinct))
	}
	t.Logf("%d runs planned, %d distinct, %d simulated", total, len(distinct), len(execs))

	for _, j := range []struct {
		id    string
		run   int
		joins string
	}{{"F5", 0, "F4"}, {"M3", 0, "M2"}, {"A3", 0, "A2"}} {
		if !slices.Contains(planned[j.joins], planned[j.id][j.run]) {
			t.Errorf("%s run %d is not one of %s's runs", j.id, j.run, j.joins)
		}
	}
	for _, r := range rs {
		switch id := r.Experiment.ID; {
		case r.Err != nil || r.Skipped:
			t.Errorf("%s: err=%v skipped=%t", id, r.Err, r.Skipped)
		case runtime.GOARCH == "amd64" && r.Digest != pinnedDigests[id]:
			t.Errorf("%s digest moved: %s, pinned %s", id, r.Digest, pinnedDigests[id])
		}
	}
}

// checkObsSweep holds an instrumented sweep to real work since before:
// it fired events, ran scenarios of its own (pool misses), found every
// fed-back packet in its sender's send history, spanned each experiment
// once, and left a registry that renders as well-formed Prometheus
// exposition.
func checkObsSweep(t *testing.T, before obs.Snapshot, tl *obs.Tracer, experiments int) {
	snap := obs.TakeSnapshot()
	if snap.Counters["sim.events_fired"] == before.Counters["sim.events_fired"] {
		t.Error("instrumented sweep fired no sim events — was the pool flushed?")
	}
	if snap.Counters["runner.default.memo_misses"] == before.Counters["runner.default.memo_misses"] {
		t.Error("instrumented sweep ran no scenario of its own")
	}
	if n, ok := snap.Counters["cc.history_misses"]; !ok || n != 0 {
		t.Errorf("cc.history_misses = %d (registered: %v), want 0", n, ok)
	}
	spans := 0
	for _, s := range tl.Snapshot() {
		if strings.HasPrefix(s.Name, "exp:") {
			spans++
		}
	}
	if spans != experiments {
		t.Errorf("timeline has %d experiment spans, want %d", spans, experiments)
	}
	var prom bytes.Buffer
	if err := obs.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	pt, err := obs.ParsePrometheus(&prom)
	if err != nil {
		t.Fatalf("instrumented exposition does not lint: %v", err)
	}
	if pt.Families[obs.PromName("sim.events_fired")] == nil {
		t.Errorf("exposition lost sim.events_fired (%d families)", len(pt.Families))
	}
}

// corruptEntries flips one byte in the middle of every store entry under
// dir and returns how many it corrupted.
func corruptEntries(t *testing.T, dir string) (n int) {
	err := filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() || !strings.HasSuffix(path, ".entry") {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		data[len(data)/2] ^= 0xff
		n++
		return os.WriteFile(path, data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	return n
}
