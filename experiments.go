package athena

// The experiment registry's vocabulary, as the drivers in this package
// use it. Every driver (Fig3 … Fig10, M1 … M4, A1 … A4, S1 … S4, S8, S9)
// registers itself with internal/experiment from its file's init; the
// exported driver functions remain as compatibility entry points, but
// selection, execution, export and the run manifest all flow through the
// registry, and cmd/athena-bench is a pure client of it.

import "athena/internal/experiment"

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

// NewFigure returns an empty figure with the scalar map initialized —
// the canvas out-of-tree experiment generators draw on.
func NewFigure(id, title string) *FigureData { return experiment.New(id, title) }
