package athena

// The persistent result store must be invisible in the results: caching
// can only change *when* a figure is computed, never *what* it
// contains. This is the acceptance-criteria test for the store tier —
// it sweeps the ENTIRE registry store-off, store-on-cold and
// store-on-warm and requires identical per-experiment digests, then
// corrupts every on-disk entry and requires the next sweep to degrade
// to recomputation (cache misses) rather than ever serving a wrong
// figure.

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"athena/internal/experiment"
	"athena/internal/obs"
	"athena/internal/runner"
	"athena/internal/store"
)

func TestDigestsUnchangedByStore(t *testing.T) {
	sel, err := experiment.Select(experiment.Selection{})
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Seed: 1, Scale: 0.02}
	ctx := context.Background()

	obs.Enable()
	defer obs.Disable()

	off := experiment.Sweep(ctx, sel, experiment.SweepConfig{Options: opts, Parallel: 2})

	s, err := store.Open(t.TempDir(), store.Config{})
	if err != nil {
		t.Fatal(err)
	}
	withStore := experiment.SweepConfig{Options: opts, Parallel: 2, Cache: s, CacheNamespace: "digest-test"}

	// The shared scenario pool memoizes by config; flush between sweeps
	// so each cold pass truly recomputes.
	runner.Default.Flush()
	cold := experiment.Sweep(ctx, sel, withStore)
	runner.Default.Flush()
	warm := experiment.Sweep(ctx, sel, withStore)

	if len(off) != len(sel) || len(cold) != len(sel) || len(warm) != len(sel) || len(sel) == 0 {
		t.Fatalf("sweep sizes: %d %d %d over %d experiments", len(off), len(cold), len(warm), len(sel))
	}
	for i := range sel {
		id := sel[i].ID
		for _, r := range []experiment.RunResult{off[i], cold[i], warm[i]} {
			if r.Err != nil {
				t.Fatalf("%s errored: %v", id, r.Err)
			}
		}
		if cold[i].Cached {
			t.Fatalf("%s claims a hit on a cold store", id)
		}
		if !warm[i].Cached {
			t.Fatalf("%s missed on a warm store", id)
		}
		if off[i].Digest != cold[i].Digest {
			t.Errorf("%s digest changed by enabling the store: %.12s vs %.12s", id, off[i].Digest, cold[i].Digest)
		}
		if cold[i].Digest != warm[i].Digest {
			t.Errorf("%s digest changed cold → warm: %.12s vs %.12s", id, cold[i].Digest, warm[i].Digest)
		}
		if warm[i].Rendered != cold[i].Rendered {
			t.Errorf("%s rendered bytes changed cold → warm", id)
		}
	}
	if diffs := experiment.DiffDigests(experiment.NewManifest(opts, off), experiment.NewManifest(opts, warm)); len(diffs) != 0 {
		t.Fatalf("manifests diverge across store tiers: %v", diffs)
	}
	st := s.Stats()
	if st.Hits != int64(len(sel)) || st.Writes != int64(len(sel)) {
		t.Fatalf("store stats inconsistent with one cold + one warm sweep: %+v", st)
	}

	// Corrupt every entry: the next sweep must recompute everything —
	// identical digests, no hits, every entry counted corrupt.
	corrupted := 0
	err = filepath.Walk(s.Dir(), func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() || !strings.HasSuffix(path, ".entry") {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		data[len(data)/2] ^= 0xff
		corrupted++
		return os.WriteFile(path, data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	if corrupted != len(sel) {
		t.Fatalf("corrupted %d entries, want %d", corrupted, len(sel))
	}
	runner.Default.Flush()
	after := experiment.Sweep(ctx, sel, withStore)
	for i := range sel {
		if after[i].Cached {
			t.Fatalf("%s served from a corrupt entry", sel[i].ID)
		}
		if after[i].Digest != off[i].Digest {
			t.Errorf("%s digest wrong after corruption recovery: %.12s vs %.12s",
				sel[i].ID, after[i].Digest, off[i].Digest)
		}
	}
	if got := s.Stats().Corrupt; got != int64(len(sel)) {
		t.Fatalf("corrupt counter = %d, want %d", got, len(sel))
	}
}
