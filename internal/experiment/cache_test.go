package experiment

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"athena/internal/obs"
	"athena/internal/stats"
	"athena/internal/store"
)

// countingExperiments builds deterministic experiments whose plans count
// invocations, so tests can prove a warm sweep really skipped planning
// and rendering them.
func countingExperiments(n int, calls *atomic.Int64) []Experiment {
	es := make([]Experiment, n)
	for i := range es {
		id := string(rune('A'+i)) + "1"
		es[i] = Experiment{ID: id, Title: "cache-" + id, Family: "test", Tags: []string{"test"}, Plan: renderOnly(func(o Options) *FigureData {
			if calls != nil {
				calls.Add(1)
			}
			f := New(id, "cache-"+id)
			f.Scalars["seed"] = float64(o.SeedOrDefault())
			f.Scalars["scale"] = o.Scale
			f.Add("line", []stats.Point{{X: 1, Y: float64(o.SeedOrDefault())}, {X: 2, Y: 0.125}})
			f.Note("note for %s", id)
			return f
		})}
	}
	return es
}

func testStore(t *testing.T) *store.Store {
	t.Helper()
	s, err := store.Open(t.TempDir(), store.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestSweepStoreColdWarm pins the second-tier contract: a cold sweep
// populates the store and computes everything; a warm sweep hits for
// every experiment, skips every generator, and reproduces the exact
// digests, rendered bytes and figures.
func TestSweepStoreColdWarm(t *testing.T) {
	obs.Enable()
	defer obs.Disable()
	var calls atomic.Int64
	exps := countingExperiments(5, &calls)
	s := testStore(t)
	cfg := SweepConfig{Options: Options{Seed: 3, Scale: 0.5}, Cache: s, CacheNamespace: "rev1"}

	cold := Sweep(context.Background(), exps, cfg)
	if got := calls.Load(); got != 5 {
		t.Fatalf("cold sweep ran %d generators, want 5", got)
	}
	for _, r := range cold {
		if r.Cached {
			t.Fatalf("%s marked cached on a cold store", r.Experiment.ID)
		}
	}
	if st := s.Stats(); st.Misses != 5 || st.Writes != 5 {
		t.Fatalf("cold store stats = %+v", st)
	}

	warm := Sweep(context.Background(), exps, cfg)
	if got := calls.Load(); got != 5 {
		t.Fatalf("warm sweep ran %d extra generators, want 0", got-5)
	}
	if st := s.Stats(); st.Hits != 5 {
		t.Fatalf("warm store stats = %+v", st)
	}
	for i := range cold {
		if !warm[i].Cached {
			t.Fatalf("%s not marked cached on warm sweep", warm[i].Experiment.ID)
		}
		if warm[i].Digest != cold[i].Digest || warm[i].Rendered != cold[i].Rendered {
			t.Fatalf("%s warm result diverged from cold", warm[i].Experiment.ID)
		}
		if warm[i].Figure == nil || warm[i].Figure.String() != cold[i].Figure.String() {
			t.Fatalf("%s warm figure does not re-render identically", warm[i].Experiment.ID)
		}
	}

	// Artifact saving must work from a cached figure too.
	dir := t.TempDir()
	saved := Sweep(context.Background(), exps[:1], SweepConfig{
		Options: cfg.Options, Cache: s, CacheNamespace: "rev1", OutDir: dir})
	if !saved[0].Cached || len(saved[0].Artifacts) != 2 {
		t.Fatalf("cached result did not save artifacts: %+v", saved[0])
	}
}

// TestSweepStoreNamespaceAndOptionsPartition pins the miss conditions:
// a different namespace (code revision) or different options must not
// hit entries written under another.
func TestSweepStoreNamespaceAndOptionsPartition(t *testing.T) {
	var calls atomic.Int64
	exps := countingExperiments(2, &calls)
	s := testStore(t)
	base := SweepConfig{Options: Options{Seed: 3, Scale: 0.5}, Cache: s, CacheNamespace: "rev1"}
	Sweep(context.Background(), exps, base)

	other := base
	other.CacheNamespace = "rev2"
	for _, r := range Sweep(context.Background(), exps, other) {
		if r.Cached {
			t.Fatalf("%s hit across namespaces", r.Experiment.ID)
		}
	}

	scaled := base
	scaled.Options.Scale = 0.25
	for _, r := range Sweep(context.Background(), exps, scaled) {
		if r.Cached {
			t.Fatalf("%s hit across options", r.Experiment.ID)
		}
	}
}

// corruptStoreEntries bit-flips one byte in every entry file under dir.
func corruptStoreEntries(t *testing.T, dir string) int {
	t.Helper()
	n := 0
	err := filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() || !strings.HasSuffix(path, ".entry") {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		data[len(data)-1] ^= 0x5a
		n++
		return os.WriteFile(path, data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestSweepStoreCorruptEntriesRecompute injects corruption under the
// sweep and requires the digests to come out right anyway: every
// corrupt entry is a miss (recomputed, counter bumped), never a wrong
// result.
func TestSweepStoreCorruptEntriesRecompute(t *testing.T) {
	obs.Enable()
	defer obs.Disable()
	var calls atomic.Int64
	exps := countingExperiments(4, &calls)
	s := testStore(t)
	cfg := SweepConfig{Options: Options{Seed: 7, Scale: 1}, Cache: s, CacheNamespace: "rev1"}
	cold := Sweep(context.Background(), exps, cfg)
	if n := corruptStoreEntries(t, s.Dir()); n != 4 {
		t.Fatalf("corrupted %d entries, want 4", n)
	}

	calls.Store(0)
	after := Sweep(context.Background(), exps, cfg)
	if got := calls.Load(); got != 4 {
		t.Fatalf("corrupt store: %d generators ran, want 4 (all recomputed)", got)
	}
	for i := range cold {
		if after[i].Cached {
			t.Fatalf("%s served from a corrupt entry", after[i].Experiment.ID)
		}
		if after[i].Digest != cold[i].Digest {
			t.Fatalf("%s digest changed after corruption recovery", after[i].Experiment.ID)
		}
	}
	if st := s.Stats(); st.Corrupt != 4 {
		t.Fatalf("corrupt counter = %d, want 4", st.Corrupt)
	}

	// The recompute re-populated the store: next sweep is warm again.
	for _, r := range Sweep(context.Background(), exps, cfg) {
		if !r.Cached {
			t.Fatalf("%s not re-cached after corruption recovery", r.Experiment.ID)
		}
	}
}

// TestSweepStoreSemanticMismatchIsMiss covers the second validation
// layer: an entry that is byte-intact (store checksum passes) but whose
// figure does not re-render to its recorded digest must be invalidated.
func TestSweepStoreSemanticMismatchIsMiss(t *testing.T) {
	obs.Enable()
	defer obs.Disable()
	exps := countingExperiments(1, nil)
	s := testStore(t)
	opts := Options{Seed: 7, Scale: 1}
	key := CacheKey("rev1", exps[0], opts)

	// A well-formed payload whose digest does not match its figure.
	fig := New(exps[0].ID, "tampered")
	fig.Scalars["seed"] = 999
	if err := saveCached(s, key, exps[0], opts, fig, "not-the-digest-of-fig"); err != nil {
		t.Fatal(err)
	}
	r := Sweep(context.Background(), exps, SweepConfig{Options: opts, Cache: s, CacheNamespace: "rev1"})[0]
	if r.Cached {
		t.Fatal("semantically invalid entry was served")
	}
	if st := s.Stats(); st.Corrupt != 1 {
		t.Fatalf("corrupt counter = %d, want 1", st.Corrupt)
	}
	if !strings.Contains(r.Rendered, "seed = 7.000") {
		t.Fatalf("recompute did not run the real generator:\n%s", r.Rendered)
	}
}

// TestCacheKeyShape pins the key's determinism and its sensitivity to
// every component.
func TestCacheKeyShape(t *testing.T) {
	e := Experiment{ID: "F3"}
	base := CacheKey("ns", e, Options{Seed: 1, Scale: 0.5})
	if base != CacheKey("ns", e, Options{Seed: 1, Scale: 0.5}) {
		t.Fatal("CacheKey not deterministic")
	}
	if CacheKey("ns", Experiment{ID: "f3"}, Options{Seed: 1, Scale: 0.5}) != base {
		t.Fatal("CacheKey not case-insensitive on ID")
	}
	distinct := []string{
		CacheKey("ns2", e, Options{Seed: 1, Scale: 0.5}),
		CacheKey("ns", Experiment{ID: "F4"}, Options{Seed: 1, Scale: 0.5}),
		CacheKey("ns", e, Options{Seed: 2, Scale: 0.5}),
		CacheKey("ns", e, Options{Seed: 1, Scale: 0.25}),
	}
	for i, k := range distinct {
		if k == base {
			t.Fatalf("variant %d collides with base key", i)
		}
	}
}
