package experiment

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// ManifestSchema versions the manifest JSON layout. ReadManifest accepts
// exactly this schema: a manifest of any other layout is rejected rather
// than half-read.
const ManifestSchema = 3

// ManifestEntry records one experiment of a sweep: its registry
// metadata, the options it ran under, its wall time, the content digest
// of the rendered figure, and any artifact files written. Digests are a
// pure function of (experiment, options), so two manifests from the
// same revision must agree digest-for-digest — and a digest that moves
// across revisions localizes a behavior change to one experiment.
type ManifestEntry struct {
	ID      string   `json:"id"`
	Title   string   `json:"title"`
	Family  string   `json:"family"`
	Tags    []string `json:"tags,omitempty"`
	Options Options  `json:"options"`
	WallMS  float64  `json:"wall_ms"`
	// QueueWaitMS is how long the experiment's first run waited in the
	// sweep's batch before starting; wall_ms counts from that start to
	// the end of its render.
	QueueWaitMS float64 `json:"queue_wait_ms"`
	// StoreWaitMS is the persistent-store lookup and validation time,
	// hit or miss; zero when no store was configured.
	StoreWaitMS float64 `json:"store_wait_ms,omitempty"`
	// Cached marks entries recalled from the persistent result store
	// rather than regenerated; their wall_ms is ~zero and their digest
	// was revalidated on load.
	Cached    bool     `json:"cached,omitempty"`
	Digest    string   `json:"digest"`
	Artifacts []string `json:"artifacts,omitempty"`
	Error     string   `json:"error,omitempty"`
	Skipped   bool     `json:"skipped,omitempty"`
}

// Manifest is the JSON run record a sweep emits for regression diffing:
// everything in it except the wall times is deterministic for a given
// revision, selection and options.
type Manifest struct {
	Schema      int             `json:"schema"`
	Options     Options         `json:"options"`
	Experiments []ManifestEntry `json:"experiments"`
}

// NewManifest builds the manifest for a sweep's results, in sweep
// (input) order.
func NewManifest(opts Options, results []RunResult) *Manifest {
	m := &Manifest{Schema: ManifestSchema, Options: opts}
	for _, r := range results {
		e := ManifestEntry{
			ID:          r.Experiment.ID,
			Title:       r.Experiment.Title,
			Family:      r.Experiment.Family,
			Tags:        r.Experiment.Tags,
			Options:     opts,
			WallMS:      math.Round(r.Wall.Seconds()*1e6) / 1e3, // µs resolution
			QueueWaitMS: math.Round(r.QueueWait.Seconds()*1e6) / 1e3,
			StoreWaitMS: math.Round(r.StoreWait.Seconds()*1e6) / 1e3,
			Cached:      r.Cached,
			Digest:      r.Digest,
			Artifacts:   r.Artifacts,
			Skipped:     r.Skipped,
		}
		if r.Err != nil {
			e.Error = r.Err.Error()
		}
		m.Experiments = append(m.Experiments, e)
	}
	return m
}

// WriteJSON emits the manifest as indented JSON with a trailing
// newline. Field order is fixed by the struct, entry order by the
// sweep, so output is deterministic up to wall times.
func (m *Manifest) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(m)
}

// WriteFile writes the manifest JSON to path.
func (m *Manifest) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := m.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadManifest parses a manifest written by WriteJSON.
func ReadManifest(r io.Reader) (*Manifest, error) {
	var m Manifest
	dec := json.NewDecoder(r)
	if err := dec.Decode(&m); err != nil {
		return nil, fmt.Errorf("reading manifest: %w", err)
	}
	if m.Schema != ManifestSchema {
		return nil, fmt.Errorf("manifest schema %d, want %d", m.Schema, ManifestSchema)
	}
	return &m, nil
}

// ReadManifestFile parses the manifest at path.
func ReadManifestFile(path string) (*Manifest, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadManifest(f)
}

// DiffDigests compares two manifests by experiment digest and returns
// one human-readable line per difference (digest mismatch, or an ID
// present on only one side), sorted by ID. Empty means the runs
// rendered byte-identical artifacts.
func DiffDigests(a, b *Manifest) []string {
	index := func(m *Manifest) map[string]ManifestEntry {
		out := make(map[string]ManifestEntry, len(m.Experiments))
		for _, e := range m.Experiments {
			out[e.ID] = e
		}
		return out
	}
	am, bm := index(a), index(b)
	ids := make(map[string]bool, len(am)+len(bm))
	for id := range am {
		ids[id] = true
	}
	for id := range bm {
		ids[id] = true
	}
	sorted := make([]string, 0, len(ids))
	for id := range ids {
		sorted = append(sorted, id)
	}
	sort.Slice(sorted, func(i, j int) bool { return idLess(sorted[i], sorted[j]) })

	var diffs []string
	for _, id := range sorted {
		ae, aok := am[id]
		be, bok := bm[id]
		switch {
		case !aok:
			diffs = append(diffs, fmt.Sprintf("%s: only in second manifest", id))
		case !bok:
			diffs = append(diffs, fmt.Sprintf("%s: only in first manifest", id))
		case ae.Digest != be.Digest:
			diffs = append(diffs, fmt.Sprintf("%s: digest %.12s != %.12s", id, ae.Digest, be.Digest))
		}
	}
	return diffs
}
