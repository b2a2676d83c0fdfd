package experiment

import (
	"context"
	"sync"
	"time"

	"athena/internal/obs"
	"athena/internal/runner"
	"athena/internal/store"
)

// SweepConfig tunes a Sweep.
type SweepConfig struct {
	// Options is passed to every generator.
	Options Options
	// Parallel bounds how many experiments regenerate concurrently;
	// <= 1 runs them serially. Each experiment's own scenario sweep
	// still fans out across the shared scenario pool either way.
	Parallel int
	// OutDir, when set, saves each figure's CSV artifacts there.
	OutDir string
	// Cache, when set, is the persistent second cache tier: before an
	// experiment's generator runs, the store is consulted under
	// CacheKey(CacheNamespace, exp, Options); a validated hit skips the
	// generator entirely (the result carries Cached=true), and a miss
	// stores the fresh result after generation. Store lookups are
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
	// Wall is the regeneration wall time (excluded from the digest).
	Wall time.Duration
	// QueueWait is how long the experiment sat behind the sweep's
	// Parallel bound before its generator started (also excluded from
	// the digest).
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
	// Skipped marks experiments never started because the context was
	// cancelled first.
	Skipped bool
}

// Sweep executes the experiments through a runner.Pool bounded at
// cfg.Parallel workers and returns their results in input order,
// regardless of completion order. Each generator is a pure function of
// cfg.Options, so the rendered bytes and digests are identical across
// Parallel values; only wall times differ. The per-experiment pool is
// separate from the shared scenario pool (runner.Default) the
// generators submit their scenario sweeps into, so driver-level
// concurrency cannot starve scenario-level workers.
//
// Cancelling ctx skips experiments not yet started; their slots carry
// Skipped and the context error. Experiments already running complete.
func Sweep(ctx context.Context, exps []Experiment, cfg SweepConfig) []RunResult {
	results := make([]RunResult, len(exps))
	done := make([]bool, len(exps))
	var mu sync.Mutex
	frontier := 0
	finish := func(i int) {
		mu.Lock()
		defer mu.Unlock()
		done[i] = true
		for frontier < len(exps) && done[frontier] {
			if cfg.OnResult != nil && !results[frontier].Skipped {
				cfg.OnResult(frontier, results[frontier])
			}
			frontier++
		}
	}

	workers := cfg.Parallel
	if workers < 1 {
		workers = 1
	}
	submitAt := time.Now()
	pool := runner.New(workers)
	pool.ForEach(ctx, len(exps), func(i int) {
		r := RunResult{Experiment: exps[i]}
		if err := ctx.Err(); err != nil {
			r.Err, r.Skipped = err, true
			results[i] = r
			finish(i)
			return
		}
		r.QueueWait = time.Since(submitAt)
		var cacheKey string
		if cfg.Cache != nil {
			cacheKey = CacheKey(cfg.CacheNamespace, exps[i], cfg.Options)
			t0 := time.Now()
			fig, rendered, digest, hit := loadCached(cfg.Cache, cacheKey, exps[i], cfg.Options)
			r.StoreWait = time.Since(t0)
			if hit {
				r.Figure, r.Rendered, r.Digest, r.Cached = fig, rendered, digest, true
			}
		}
		if !r.Cached {
			span := obs.StartSpan("exp:" + exps[i].ID)
			t0 := time.Now()
			fig := exps[i].Gen(cfg.Options)
			r.Figure = fig
			r.Rendered = fig.String()
			r.Digest = Digest(r.Rendered)
			r.Wall = time.Since(t0)
			span.End()
			if cfg.Cache != nil {
				// Best-effort: a full disk or unencodable figure costs
				// persistence, never the sweep.
				_ = saveCached(cfg.Cache, cacheKey, exps[i], cfg.Options, fig, r.Digest)
			}
		}
		if cfg.OutDir != "" {
			r.Artifacts, r.Err = r.Figure.Save(cfg.OutDir)
		}
		results[i] = r
		finish(i)
	})
	// ForEach skips remaining indices entirely once ctx is cancelled;
	// mark those slots so callers can tell "skipped" from "ran".
	for i := range results {
		if !done[i] {
			results[i] = RunResult{Experiment: exps[i], Err: ctx.Err(), Skipped: true}
		}
	}
	return results
}
