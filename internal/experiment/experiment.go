// Package experiment is the evaluation-artifact layer of the repository:
// the plot-ready figure model (FigureData), a process-wide registry of
// experiments (every paper figure F3–F10, mitigation study M1–M4,
// ablation A1–A4 and extension study S1–S4, S8, S9 registers itself
// here), a declarative selection language (by ID, tag, or regex), and a
// Sweep engine. An experiment declares a Plan — the topology runs it
// needs, a Fold per run and a Render — rather than running anything
// itself; Sweep submits the plans of a whole selection to the shared
// runner pool as one deduplicated batch, with context cancellation,
// deterministic input-ordered output, and a JSON run manifest for
// regression diffing across revisions.
//
// The package exists so that adding a workload means registering data,
// not editing code paths: drivers used to be a hand-maintained function
// table duplicated between the library and cmd/athena-bench; now the
// registry is the single source of truth and both CLIs and out-of-tree
// callers select from it.
package experiment

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"
	"time"

	"athena/internal/stats"
)

// Series is one named line of a figure.
type Series struct {
	Name   string
	Points []stats.Point
}

// FigureData is the plot-ready output of an experiment driver: the same
// lines the paper's figure draws, plus free-form notes (takeaways,
// drill-down rows) and scalar metrics.
type FigureData struct {
	ID      string
	Title   string
	Series  []Series
	Notes   []string
	Scalars map[string]float64
}

// New returns an empty figure with the scalar map initialized.
func New(id, title string) *FigureData {
	return &FigureData{ID: id, Title: title, Scalars: map[string]float64{}}
}

// Add appends a named series.
func (f *FigureData) Add(name string, pts []stats.Point) {
	f.Series = append(f.Series, Series{Name: name, Points: pts})
}

// Note appends a formatted free-form note.
func (f *FigureData) Note(format string, args ...any) {
	f.Notes = append(f.Notes, fmt.Sprintf(format, args...))
}

// String renders the figure data as text: scalars (sorted by name, so
// serial and parallel regeneration emit identical bytes), series
// (downsampled), and notes.
func (f *FigureData) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", f.ID, f.Title)
	keys := make([]string, 0, len(f.Scalars))
	for k := range f.Scalars {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(&b, "  %s = %.3f\n", k, f.Scalars[k])
	}
	for _, s := range f.Series {
		b.WriteString(stats.FormatPoints(s.Name, stats.Downsample(s.Points, 24)))
	}
	for _, n := range f.Notes {
		fmt.Fprintf(&b, "  # %s\n", n)
	}
	return b.String()
}

// Digest is the content digest of the rendered figure: a SHA-256 over
// the exact bytes String returns. Two runs with equal digests rendered
// byte-identical artifacts, so manifests can be diffed across revisions
// instead of eyeballing figures.
func (f *FigureData) Digest() string { return Digest(f.String()) }

// Digest hashes an already-rendered artifact.
func Digest(rendered string) string {
	sum := sha256.Sum256([]byte(rendered))
	return hex.EncodeToString(sum[:])
}

// Options tunes experiment regeneration. Scale multiplies the (already
// shortened) default durations; 1.0 gives runs of 1–4 simulated minutes.
type Options struct {
	Seed  int64   `json:"seed"`
	Scale float64 `json:"scale"`
}

// Scaled applies the duration multiplier; a zero or negative Scale is
// the identity.
func (o Options) Scaled(d time.Duration) time.Duration {
	s := o.Scale
	if s <= 0 {
		s = 1
	}
	return time.Duration(float64(d) * s)
}

// SeedOrDefault returns the seed, defaulting to 1 so the zero Options
// value regenerates the published artifacts.
func (o Options) SeedOrDefault() int64 {
	if o.Seed == 0 {
		return 1
	}
	return o.Seed
}
