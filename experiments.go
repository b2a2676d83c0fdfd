package athena

// The experiment registry's vocabulary, as the drivers in this package
// use it. Every driver (Fig3 … Fig10, M1 … M4, A1 … A4, S1 … S4, S8, S9)
// registers its plan with internal/experiment from its file's init; the
// exported driver functions remain as one-line entry points that run
// that plan alone, but selection, execution, export and the run manifest
// all flow through the registry, and cmd/athena-bench is a pure client
// of it.

import (
	"athena/internal/experiment"
	"athena/internal/scenario"
)

// FigureData is the plot-ready output of an experiment driver: the same
// lines the paper's figure draws, plus free-form notes (takeaways,
// drill-down rows) and scalar metrics.
type FigureData = experiment.FigureData

// Options tunes experiment regeneration. Scale multiplies the (already
// shortened) default durations; 1.0 gives runs of 1–4 simulated
// minutes.
type Options = experiment.Options

// Experiment is one registered evaluation artifact: ID, title,
// family/tags, description and the plan that renders it.
type Experiment = experiment.Experiment

// Plan is an experiment's simulations and how their results fold into
// its figure; a registry sweep runs every selected plan as one batch.
type Plan = experiment.Plan

// NewFigure returns an empty figure with the scalar map initialized —
// the canvas out-of-tree experiment plans draw on.
func NewFigure(id, title string) *FigureData { return experiment.New(id, title) }

// runs lifts configs into the single-UE topologies a plan runs.
func runs(cfgs ...Config) []Topology {
	tops := make([]Topology, len(cfgs))
	for i, cfg := range cfgs {
		tops[i] = scenario.SingleUE(cfg)
	}
	return tops
}

// partsPlan plans tops, with draw drawing run i's share of fig —
// scalars, series, notes — onto a part of its own as the run lands.
// Render joins the parts to fig in run order, which renders the bytes a
// serial loop drawing each run onto fig would, then calls finish (when
// non-nil) to draw what spans the runs.
func partsPlan(fig *FigureData, tops []Topology, draw func(i int, tr *TopologyResult, part *FigureData), finish func()) Plan {
	parts := make([]*FigureData, len(tops))
	return Plan{
		Runs: tops,
		Fold: func(i int, tr *TopologyResult) {
			parts[i] = NewFigure(fig.ID, fig.Title)
			draw(i, tr, parts[i])
		},
		Render: func() *FigureData {
			for _, p := range parts {
				for k, v := range p.Scalars {
					fig.Scalars[k] = v
				}
				fig.Series = append(fig.Series, p.Series...)
				fig.Notes = append(fig.Notes, p.Notes...)
			}
			if finish != nil {
				finish()
			}
			return fig
		},
	}
}
