package athena

// The experiment registry facade. Every driver in this package (Fig3 …
// Fig10, M1 … M4, A1 … A4, S1 … S4, S8, S9) registers itself with
// internal/experiment from its file's init; the exported driver
// functions remain as compatibility entry points, but selection,
// execution, export and the run manifest all flow through the registry,
// and cmd/athena-bench is a pure client of it.

import (
	"context"

	"athena/internal/experiment"
)

// Series is one named line of a figure.
type Series = experiment.Series

// FigureData is the plot-ready output of an experiment driver: the same
// lines the paper's figure draws, plus free-form notes (takeaways,
// drill-down rows) and scalar metrics.
type FigureData = experiment.FigureData

// Options tunes experiment regeneration. Scale multiplies the (already
// shortened) default durations; 1.0 gives runs of 1–4 simulated
// minutes.
type Options = experiment.Options

// Experiment is one registered evaluation artifact: ID, title,
// family/tags, description and the generator that renders it.
type Experiment = experiment.Experiment

// Selection filters the registry by IDs, tags and/or an ID/title regex;
// the empty Selection selects everything.
type Selection = experiment.Selection

// SweepConfig tunes SweepExperiments.
type SweepConfig = experiment.SweepConfig

// RunResult is one experiment's slot in a sweep, in input order.
type RunResult = experiment.RunResult

// NewFigure returns an empty figure with the scalar map initialized —
// the canvas out-of-tree experiment generators draw on.
func NewFigure(id, title string) *FigureData { return experiment.New(id, title) }

// Experiments lists the registry in canonical order (F, M, A, S, then
// out-of-tree families; numeric within a family).
func Experiments() []Experiment { return experiment.All() }

// LookupExperiment finds an experiment by case-insensitive ID.
func LookupExperiment(id string) (Experiment, bool) { return experiment.Lookup(id) }

// SelectExperiments filters the registry; an unknown ID errors listing
// the valid IDs.
func SelectExperiments(sel Selection) ([]Experiment, error) { return experiment.Select(sel) }

// SweepExperiments executes a selection with bounded parallelism and
// deterministic input-ordered results; rendered bytes and digests are
// identical across SweepConfig.Parallel values.
func SweepExperiments(ctx context.Context, exps []Experiment, cfg SweepConfig) []RunResult {
	return experiment.Sweep(ctx, exps, cfg)
}

// NewManifest builds the JSON run manifest for a sweep's results.
func NewManifest(opts Options, results []RunResult) *experiment.Manifest {
	return experiment.NewManifest(opts, results)
}

// DiffManifests compares two manifests digest-for-digest, returning one
// line per difference; empty means byte-identical artifacts.
func DiffManifests(a, b *experiment.Manifest) []string { return experiment.DiffDigests(a, b) }
