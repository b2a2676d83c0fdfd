package experiment

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"athena/internal/obs"
	"athena/internal/runner"
	"athena/internal/scenario"
	"athena/internal/store"
)

// Plan is what an experiment declares instead of running its own
// simulations: the topology runs it needs and how their results become
// its figure. Sweep unions the plans of every artifact it regenerates
// into one deduplicated batch, so an artifact's runs share the workers
// with every other artifact's and a run two artifacts need simulates
// once. A Plan value is executed once; Experiment.Plan builds a fresh
// one per sweep.
type Plan struct {
	// Runs are the simulations, in the order Fold indexes them. A
	// single-UE Config run is scenario.SingleUE(cfg).
	Runs []scenario.Topology
	// Fold takes what the figure needs out of run i's result. It is
	// called once per run, on the worker that ran it, possibly
	// concurrently with other folds, so it writes index-disjoint state
	// only, and must not modify the result: another artifact may fold
	// the same one. The result is dropped when Fold returns. Fold may be
	// nil when Runs is empty.
	Fold func(i int, r *scenario.TopologyResult)
	// Render builds the figure once every Fold has returned. It runs on
	// the sweep goroutine, never on a pool worker slot, and submits
	// nothing to the pool; a plan with no runs does all its work here.
	Render func() *FigureData
}

// Generate executes one plan through the shared runner pool and renders
// its figure — the engine Sweep runs, for a single artifact.
func Generate(p Plan) *FigureData {
	runner.Default.Each(context.Background(), p.Runs, nil, p.Fold)
	return p.Render()
}

// SweepConfig tunes a Sweep.
type SweepConfig struct {
	// Options is passed to every experiment's plan.
	Options Options
	// Parallel is ignored: a sweep is one batch on the shared runner
	// pool, which bounds the simulations running at once.
	//
	// Deprecated: ignored.
	Parallel int
	// OutDir, when set, saves each figure's CSV artifacts there.
	OutDir string
	// Cache, when set, is the persistent second cache tier: before an
	// experiment is planned, the store is consulted under
	// CacheKey(CacheNamespace, exp, Options); a validated hit skips the
	// experiment entirely (the result carries Cached=true), and a miss
	// stores the fresh result after rendering. Store lookups are
	// digest-validated, so a corrupt or stale entry degrades to a
	// recompute, never a wrong figure; store write failures are
	// likewise silent — the cache is strictly best-effort.
	Cache *store.Store
	// CacheNamespace partitions Cache keys, conventionally by code
	// revision (cmd/athena-bench derives it from build VCS info): the
	// stored digest proves integrity, not that the current code would
	// reproduce the entry, so sweeps on changed code must miss.
	CacheNamespace string
	// OnResult, when set, is called once per executed experiment in
	// input order, as each ordered prefix completes — the streaming
	// hook CLIs print from. It must not be called concurrently and is
	// never called for experiments skipped by cancellation.
	OnResult func(i int, r RunResult)
}

// RunResult is one experiment's slot in a sweep, in input order.
type RunResult struct {
	Experiment Experiment
	Figure     *FigureData
	// Rendered is the figure's text rendering and Digest its SHA-256 —
	// the bytes manifests diff across revisions.
	Rendered string
	Digest   string
	// Wall is the experiment's span in the sweep: from the start of its
	// first run (of its render, when it plans none) to the end of its
	// render. Spans of different experiments overlap. Excluded from the
	// digest.
	Wall time.Duration
	// QueueWait is the wait before that span, from the sweep submitting
	// its batch (also excluded from the digest).
	QueueWait time.Duration
	// StoreWait is the time spent consulting (and validating) the
	// persistent store, hit or miss; zero when no Cache is configured.
	StoreWait time.Duration
	// Cached marks results recalled from the persistent store instead
	// of regenerated; Wall is then ~zero and Figure is the decoded,
	// digest-revalidated stored figure.
	Cached bool
	// Artifacts lists the files saved under SweepConfig.OutDir.
	Artifacts []string
	// Err is a save error, or the context error when Skipped.
	Err error
	// Skipped marks experiments never rendered because the context was
	// cancelled first.
	Skipped bool
}

// pending is one experiment of a sweep that missed the store: its plan
// and the progress of its runs.
type pending struct {
	slot  int
	id    string
	key   string // store key; empty without a Cache
	plan  Plan
	left  atomic.Int32 // runs not yet folded
	once  sync.Once    // the first of its runs to start opens the span
	start time.Time
	span  obs.Span
}

func (p *pending) begin() {
	p.once.Do(func() {
		p.start = time.Now()
		p.span = obs.StartSpan("exp:" + p.id)
	})
}

// Sweep regenerates the experiments and returns their results in input
// order, regardless of completion order. It works in three steps:
//
//  1. Each experiment is looked up in the store (when cfg.Cache is set);
//     a hit is final.
//  2. The plans of the experiments that missed are unioned, in input
//     order, into one batch of topology runs.
//  3. The batch goes to runner.Default as one Each: duplicate runs
//     simulate once, at most one run per worker is in flight, and each
//     result is folded into every plan that asked for it and dropped.
//     When an experiment's last fold returns, its Render runs on the
//     calling goroutine and the figure goes to the store. A plan with
//     no run is ready before the batch starts, so it renders while the
//     batch's workers run.
//
// Each plan is a pure function of cfg.Options, so the rendered bytes and
// digests are identical whatever else the sweep selects and in whatever
// order the runs land; only wall times differ.
//
// Cancelling ctx skips every experiment whose Render has not started;
// their slots carry Skipped and the context error. Runs already in
// flight complete.
func Sweep(ctx context.Context, exps []Experiment, cfg SweepConfig) []RunResult {
	results := make([]RunResult, len(exps))
	done := make([]bool, len(exps))
	frontier := 0
	// finish runs on this goroutine only, so OnResult is never concurrent.
	finish := func(i int) {
		done[i] = true
		for frontier < len(exps) && done[frontier] {
			if cfg.OnResult != nil && !results[frontier].Skipped {
				cfg.OnResult(frontier, results[frontier])
			}
			frontier++
		}
	}
	save := func(r *RunResult) {
		if cfg.OutDir != "" {
			r.Artifacts, r.Err = r.Figure.Save(cfg.OutDir)
		}
	}

	// 1 and 2: recall what the store holds, plan the rest.
	var todo []*pending
	var tops []scenario.Topology
	type runRef struct {
		p   *pending
		run int
	}
	var refs []runRef
	for i, e := range exps {
		r := &results[i]
		r.Experiment = e
		if err := ctx.Err(); err != nil {
			r.Err, r.Skipped = err, true
			finish(i)
			continue
		}
		p := &pending{slot: i, id: e.ID}
		if cfg.Cache != nil {
			p.key = CacheKey(cfg.CacheNamespace, e, cfg.Options)
			t0 := time.Now()
			fig, rendered, digest, hit := loadCached(cfg.Cache, p.key, e, cfg.Options)
			r.StoreWait = time.Since(t0)
			if hit {
				r.Figure, r.Rendered, r.Digest, r.Cached = fig, rendered, digest, true
				save(r)
				finish(i)
				continue
			}
		}
		p.plan = e.Plan(cfg.Options)
		p.left.Store(int32(len(p.plan.Runs)))
		for k, top := range p.plan.Runs {
			tops = append(tops, top)
			refs = append(refs, runRef{p, k})
		}
		todo = append(todo, p)
	}

	// render renders one plan whose runs have all been folded.
	submitAt := time.Now()
	render := func(p *pending) {
		r := &results[p.slot]
		if err := ctx.Err(); err != nil {
			r.Err, r.Skipped = err, true
			finish(p.slot)
			return
		}
		p.begin()
		fig := p.plan.Render()
		r.Figure = fig
		r.Rendered = fig.String()
		r.Digest = Digest(r.Rendered)
		r.QueueWait = p.start.Sub(submitAt)
		r.Wall = time.Since(p.start)
		p.span.End()
		if cfg.Cache != nil {
			// Best-effort: a full disk or unencodable figure costs
			// persistence, never the sweep.
			_ = saveCached(cfg.Cache, p.key, r.Experiment, cfg.Options, fig, r.Digest)
		}
		save(r)
		finish(p.slot)
	}

	// 3: one batch; a plan becomes ready to render when its last fold
	// returns (a plan with no run, at once), and renders on this
	// goroutine. The channel holds every plan, so no worker blocks on it.
	ready := make(chan *pending, len(todo))
	for _, p := range todo {
		if len(p.plan.Runs) == 0 {
			ready <- p
		}
	}
	go func() {
		runner.Default.Each(ctx, tops,
			func(t int) { refs[t].p.begin() },
			func(t int, tr *scenario.TopologyResult) {
				ref := refs[t]
				ref.p.plan.Fold(ref.run, tr)
				if ref.p.left.Add(-1) == 0 {
					ready <- ref.p
				}
			})
		close(ready)
	}()
	for p := range ready {
		render(p)
	}
	// Plans with runs the cancellation skipped never became ready.
	for _, p := range todo {
		if p.left.Load() > 0 {
			r := &results[p.slot]
			r.Err, r.Skipped = ctx.Err(), true
			finish(p.slot)
		}
	}
	return results
}
