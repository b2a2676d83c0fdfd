package experiment

import (
	"bytes"
	"errors"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"athena/internal/stats"
)

// manifestFixture builds a two-experiment sweep result with fixed wall
// times so the rendered JSON is fully deterministic.
func manifestFixture() (Options, []RunResult) {
	opts := Options{Seed: 7, Scale: 0.25}
	mk := func(id, title string) RunResult {
		f := New(id, title)
		f.Scalars["metric"] = 1.5
		f.Add("line", []stats.Point{{X: 1, Y: 2}})
		rendered := f.String()
		return RunResult{
			Experiment: Experiment{ID: id, Title: title, Family: "figure", Tags: []string{"figure"}},
			Figure:     f,
			Rendered:   rendered,
			Digest:     Digest(rendered),
			Wall:       1500 * time.Microsecond,
			QueueWait:  250 * time.Microsecond,
		}
	}
	return opts, []RunResult{mk("F3", "first"), mk("F4", "second")}
}

const goldenManifest = `{
  "schema": 3,
  "options": {
    "seed": 7,
    "scale": 0.25
  },
  "experiments": [
    {
      "id": "F3",
      "title": "first",
      "family": "figure",
      "tags": [
        "figure"
      ],
      "options": {
        "seed": 7,
        "scale": 0.25
      },
      "wall_ms": 1.5,
      "queue_wait_ms": 0.25,
      "digest": "0afc0ee24f2c6e8732d3ae04f24953ddaa8e1215523e7e7b09cfbeba1c148039"
    },
    {
      "id": "F4",
      "title": "second",
      "family": "figure",
      "tags": [
        "figure"
      ],
      "options": {
        "seed": 7,
        "scale": 0.25
      },
      "wall_ms": 1.5,
      "queue_wait_ms": 0.25,
      "digest": "15974ce1453aec67f0a21e49de8c00ba642dcef65dfd5e855dcf398f737f07c5"
    }
  ]
}
`

func TestManifestGoldenRoundTrip(t *testing.T) {
	opts, results := manifestFixture()
	m := NewManifest(opts, results)

	var buf bytes.Buffer
	if err := m.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.String() != goldenManifest {
		t.Fatalf("manifest JSON drifted from golden:\n%s", buf.String())
	}

	back, err := ReadManifest(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m, back) {
		t.Fatalf("round trip changed the manifest:\n%+v\nvs\n%+v", m, back)
	}
}

func TestManifestFileRoundTrip(t *testing.T) {
	opts, results := manifestFixture()
	m := NewManifest(opts, results)
	path := filepath.Join(t.TempDir(), "run.json")
	if err := m.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	back, err := ReadManifestFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m, back) {
		t.Fatal("file round trip changed the manifest")
	}
}

func TestManifestRecordsErrors(t *testing.T) {
	opts, results := manifestFixture()
	results[1].Err = errors.New("disk full")
	results[1].Skipped = true
	m := NewManifest(opts, results)
	if m.Experiments[1].Error != "disk full" || !m.Experiments[1].Skipped {
		t.Fatalf("error/skip not recorded: %+v", m.Experiments[1])
	}
}

func TestManifestSchemaGuard(t *testing.T) {
	for _, body := range []string{`{"schema": 99}`, `{"schema": 2}`} {
		if _, err := ReadManifest(strings.NewReader(body)); err == nil {
			t.Fatalf("%s accepted", body)
		}
	}
	if _, err := ReadManifest(strings.NewReader(`{nope`)); err == nil {
		t.Fatal("bad JSON accepted")
	}
}

func TestDiffDigests(t *testing.T) {
	opts, results := manifestFixture()
	a := NewManifest(opts, results)
	b := NewManifest(opts, results)
	if diffs := DiffDigests(a, b); len(diffs) != 0 {
		t.Fatalf("identical manifests diff: %v", diffs)
	}
	b.Experiments[0].Digest = "deadbeef"
	b.Experiments = append(b.Experiments, ManifestEntry{ID: "X1", Digest: "ff"})
	a.Experiments = append(a.Experiments, ManifestEntry{ID: "A9", Digest: "aa"})
	diffs := DiffDigests(a, b)
	if len(diffs) != 3 {
		t.Fatalf("diffs = %v", diffs)
	}
	// Canonical ID order: F3 (digest), A9 (only first), X1 (only second).
	if !strings.HasPrefix(diffs[0], "F3: digest") ||
		!strings.HasPrefix(diffs[1], "A9: only in first") ||
		!strings.HasPrefix(diffs[2], "X1: only in second") {
		t.Fatalf("diff lines = %v", diffs)
	}
}
