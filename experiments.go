package athena

// The experiment registry facade. Every driver in this package (Fig3 …
// Fig10, M1 … M4, A1 … A4, S1 … S4) registers itself with
// internal/experiment from its file's init; the exported driver
// functions remain as compatibility entry points, but selection,
// execution, export and the run manifest all flow through the registry —
// cmd/athena-bench is a pure client of it, and out-of-tree experiments
// registered through RegisterExperiment sweep exactly like the
// built-ins (internal/experiment's registry and sweep tests run a
// registered generator through that path).

import (
	"context"

	"athena/internal/experiment"
	"athena/internal/store"
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

// Manifest is the JSON run record a sweep emits for regression diffing.
type Manifest = experiment.Manifest

// ManifestEntry is one experiment's row of a Manifest.
type ManifestEntry = experiment.ManifestEntry

// NewFigure returns an empty figure with the scalar map initialized —
// the canvas out-of-tree experiment generators draw on.
func NewFigure(id, title string) *FigureData { return experiment.New(id, title) }

// RegisterExperiment adds an experiment to the process-wide registry.
// Unknown families and tags are fine; duplicate (case-insensitive) IDs
// are an error.
func RegisterExperiment(e Experiment) error { return experiment.Register(e) }

// Experiments lists the registry in canonical order (F, M, A, S, then
// out-of-tree families; numeric within a family).
func Experiments() []Experiment { return experiment.All() }

// ExperimentIDs lists every registered ID in canonical order.
func ExperimentIDs() []string { return experiment.IDs() }

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
func NewManifest(opts Options, results []RunResult) *Manifest {
	return experiment.NewManifest(opts, results)
}

// DiffManifests compares two manifests digest-for-digest, returning one
// line per difference; empty means byte-identical artifacts.
func DiffManifests(a, b *Manifest) []string { return experiment.DiffDigests(a, b) }

// Shard identifies one of Count equal partitions of a selection; see
// ParseShard and Shard.Partition.
type Shard = experiment.Shard

// ParseShard parses an "i/n" shard spec (1-based, 1 ≤ i ≤ n).
func ParseShard(s string) (Shard, error) { return experiment.ParseShard(s) }

// MergeManifests recombines per-shard sweep manifests into one manifest
// digest-identical to an unsharded run over the union selection. The
// inputs must share options and have disjoint experiment sets.
func MergeManifests(ms []*Manifest) (*Manifest, error) { return experiment.MergeManifests(ms) }

// ResultStore is the on-disk content-addressed result cache; set
// SweepConfig.Cache (with a CacheNamespace identifying the code
// revision) to make repeated sweeps incremental.
type ResultStore = store.Store

// ResultStoreConfig tunes OpenResultStore (size budget, metrics prefix).
type ResultStoreConfig = store.Config

// OpenResultStore opens (creating if needed) a persistent result store
// rooted at dir.
func OpenResultStore(dir string, cfg ResultStoreConfig) (*ResultStore, error) {
	return store.Open(dir, cfg)
}
