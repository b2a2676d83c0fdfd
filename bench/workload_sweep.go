package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	_ "athena" // register the built-in experiment drivers
	"athena/internal/experiment"
	"athena/internal/obs"
	"athena/internal/runner"
	"athena/internal/scenario"
	"athena/internal/store"
)

// sweepNamespace partitions the scratch stores' keys; the benchmark
// never shares a store with a real sweep.
const sweepNamespace = "bench"

// sweepSeeds is the pool of scenario seeds a run sweeps the registry at;
// -seed picks the order. A sweep's cost depends on its scenario seed far
// more than on anything a run can average out: at equal event counts F3,
// F7 and M2 take twice as long on some seeds as on others, which moved
// cold-sweep time by ~17% between seeds at one commit. Sweeping the same
// three seeds in every run keeps that out of the run-to-run spread
// without tying the numbers to a single seed.
var sweepSeeds = [...]int64{1, 2, 3}

// sweepWorkload is the paper-reproduction flow: every registry artifact
// regenerated through experiment.Sweep into an empty result store
// (cold), once per pool seed, each time followed by warm sweeps that
// recall it from that store.
//
// unit = one artifact regenerated; op = one warm sweep of the registry.
type sweepWorkload struct {
	exps  []experiment.Experiment
	scale float64
	seeds []int64  // sweepSeeds, rotated by -seed
	dirs  []string // scratch store directories to remove
}

func (w *sweepWorkload) options(i int) experiment.Options {
	return experiment.Options{Seed: w.seeds[i%len(w.seeds)], Scale: w.scale}
}

func (w *sweepWorkload) params(sz sizes) string {
	return fmt.Sprintf("artifacts=all scale=%g parallel=1 scenario_seeds=%v cold=into-empty-store warm=store-hits", sz.sweepScale, sweepSeeds)
}

func (w *sweepWorkload) setup(c *runCtx) error {
	w.exps = experiment.All()
	w.scale = c.sz.sweepScale
	n := int64(len(sweepSeeds))
	off := int((c.seed%n + n) % n) // a negative -seed still lands in the pool
	w.seeds = append(append([]int64(nil), sweepSeeds[off:]...), sweepSeeds[:off]...)
	// One toy-scale sweep through a store, so the registry, the runner
	// pool's workers and the heap are warm before the first timed sweep.
	st, err := w.newStore(c)
	if err != nil {
		return err
	}
	defer st.Close()
	rs, _ := w.sweep(c.span, experiment.Options{Seed: w.seeds[0], Scale: warmupScale}, st)
	for _, r := range rs {
		if r.Err != nil {
			return fmt.Errorf("warm-up %s: %w", r.Experiment.ID, r.Err)
		}
	}
	return nil
}

func (w *sweepWorkload) teardown() {
	for _, d := range w.dirs {
		os.RemoveAll(d)
	}
	w.dirs = nil
}

// newStore opens an empty scratch store under bench/out.
func (w *sweepWorkload) newStore(c *runCtx) (*store.Store, error) {
	dir, err := os.MkdirTemp(c.outDir, "store-")
	if err != nil {
		return nil, err
	}
	w.dirs = append(w.dirs, dir)
	return store.Open(dir, store.Config{})
}

// sweep runs the registry once through st and returns the results and
// the wall time. The runner memo is flushed first: without that a
// second cold sweep measures the memo, not the generators.
func (w *sweepWorkload) sweep(parent obs.Span, opts experiment.Options, st *store.Store) ([]experiment.RunResult, time.Duration) {
	runner.Default.Flush()
	sp := parent.Child("experiment.Sweep")
	t0 := time.Now()
	rs := experiment.Sweep(context.Background(), w.exps, experiment.SweepConfig{
		Options: opts, Parallel: 1, Cache: st, CacheNamespace: sweepNamespace,
	})
	wall := time.Since(t0)
	sp.End()
	return rs, wall
}

// verify checks one sweep's results: every artifact free of errors and
// cached exactly when it should be, and the sweep's digests equal to the
// reference sweep's.
func (w *sweepWorkload) verify(c *runCtx, label string, opts experiment.Options, rs []experiment.RunResult, wantCached bool, ref *experiment.Manifest) *experiment.Manifest {
	for _, r := range rs {
		c.check(r.Err == nil && !r.Skipped && r.Cached == wantCached, "%s %s: err=%v skipped=%t cached=%t (want %t)",
			label, r.Experiment.ID, r.Err, r.Skipped, r.Cached, wantCached)
	}
	m := experiment.NewManifest(opts, rs)
	if ref != nil {
		diffs := experiment.DiffDigests(ref, m)
		c.check(len(diffs) == 0, "%s: digests differ from the reference sweep: %s", label, strings.Join(diffs, "; "))
	}
	return m
}

// manifestDigest folds a sweep's per-artifact digests into one string.
func manifestDigest(m *experiment.Manifest) string {
	h := sha256.New()
	for _, e := range m.Experiments {
		fmt.Fprintf(h, "%s %s\n", e.ID, e.Digest)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

func (w *sweepWorkload) measure(c *runCtx) (int, error) {
	start := time.Now()
	var coldS, warmUS []float64
	var coldCPU time.Duration
	refs := make(map[int64]*experiment.Manifest)
	// Whole rounds of the seed pool until the time is up.
	for len(coldS) == 0 || time.Since(start) < c.budget {
		for i := range w.seeds {
			st, err := w.newStore(c)
			if err != nil {
				return 0, err
			}
			opts := w.options(i)
			runtime.GC() // every cold sweep starts from a collected heap
			cpu0 := selfCPU()
			rs, wall := w.sweep(c.span, opts, st)
			coldCPU += selfCPU() - cpu0
			coldS = append(coldS, wall.Seconds())
			m := w.verify(c, fmt.Sprintf("cold %d (seed %d)", len(coldS), opts.Seed), opts, rs, false, refs[opts.Seed])
			if refs[opts.Seed] == nil {
				refs[opts.Seed] = m
			}
			for j := 0; j < c.sz.warmPerCold; j++ {
				rs, wall := w.sweep(c.span, opts, st)
				warmUS = append(warmUS, us(wall))
				// The first warm sweep's digests are compared in full, which
				// covers the store's content; the rest are checked for hits.
				if j == 0 {
					w.verify(c, fmt.Sprintf("warm (seed %d)", opts.Seed), opts, rs, true, refs[opts.Seed])
					continue
				}
				for _, r := range rs {
					if r.Err != nil || !r.Cached {
						c.check(false, "warm %d %s: err=%v cached=%t", len(warmUS), r.Experiment.ID, r.Err, r.Cached)
					}
				}
			}
			st.Close()
		}
	}

	units := float64(len(w.exps) * len(coldS))
	c.set("units_per_s", units/sum(coldS))
	c.set("cpu_us_per_unit", us(coldCPU)/units)
	c.set("op_p50_us", median(warmUS))
	c.note("sweep: %d artifacts, %d cold sweeps %.3f s at seeds %v, %d warm sweeps p90 %.1f us (%d samples beyond)",
		len(w.exps), len(coldS), coldS, w.seeds, len(warmUS), quantile(warmUS, 0.90), beyond(len(warmUS), 0.90))
	for _, seed := range sweepSeeds {
		c.note("digest sweep-manifest seed %d %s", seed, manifestDigest(refs[seed]))
	}
	return 0, nil
}

func (w *sweepWorkload) layers(c *runCtx) error {
	// One untraced cold sweep first: the base of the tracing overhead.
	st0, err := w.newStore(c)
	if err != nil {
		return err
	}
	resume := c.pauseTrace()
	opts := w.options(0)
	rs0, wall0 := w.sweep(obs.Span{}, opts, st0)
	resume()
	st0.Close()
	ref := w.verify(c, "untraced cold", opts, rs0, false, nil)

	st, err := w.newStore(c)
	if err != nil {
		return err
	}
	defer st.Close()
	run0 := runner.Default.Stats()
	rs, wall := w.sweep(c.span, opts, st)
	run1 := runner.Default.Stats()
	w.verify(c, "traced cold", opts, rs, false, ref)
	c.set("bench.trace_overhead_frac", wall.Seconds()/wall0.Seconds()-1)

	known := map[string]bool{}
	for _, id := range experimentIDs {
		known[id] = true
	}
	var parts, storeWait time.Duration
	for _, r := range rs {
		// QueueWait is left out: at Parallel 1 it is the time spent behind
		// the earlier artifacts, which their own walls already count.
		parts += r.Wall + r.StoreWait
		storeWait += r.StoreWait
		if known[r.Experiment.ID] {
			c.set("experiment."+r.Experiment.ID+".wall_ms", ms(r.Wall))
		} else {
			c.note("note: registry artifact %s has no per-layer row (experimentIDs in metrics.go is out of date)", r.Experiment.ID)
		}
	}
	c.set("experiment.sum_over_wall", parts.Seconds()/wall.Seconds())
	c.set("experiment.store_wait_ms", ms(storeWait))
	subs := run1.Submissions - run0.Submissions
	c.set("runner.submissions", float64(subs))
	if subs > 0 {
		c.set("runner.memo_hit_frac", float64(run1.MemoHits-run0.MemoHits)/float64(subs))
	}

	for i := 0; i < 5; i++ {
		rs, _ := w.sweep(c.span, opts, st)
		if i == 0 {
			w.verify(c, "traced warm", opts, rs, true, ref)
		}
	}
	if s := st.Stats(); s.Hits+s.Misses > 0 {
		c.set("store.hit_frac", float64(s.Hits)/float64(s.Hits+s.Misses))
	}
	c.set("store.bytes", float64(st.Size()))

	// The store alone: every stored artifact read back and rewritten
	// under a second key.
	var putUS, getUS []float64
	for _, e := range w.exps {
		key := experiment.CacheKey(sweepNamespace, e, opts)
		var payload []byte
		var ok bool
		getUS = append(getUS, us(c.timed("store.Get", func() { payload, ok = st.Get(key) })))
		if !ok {
			return fmt.Errorf("store lost %s", e.ID)
		}
		var err error
		putUS = append(putUS, us(c.timed("store.Put", func() { err = st.Put(key+"/copy", payload) })))
		if err != nil {
			return fmt.Errorf("store put %s: %w", e.ID, err)
		}
	}
	c.set("store.get_us", median(getUS))
	c.set("store.put_us", median(putUS))

	// What a sweep does ~48 times: one default single-UE run, and one
	// small single-cell run per workload family.
	cfg := scenario.Defaults()
	cfg.Seed = c.seed
	cfg.Duration = c.sz.cellDur
	single := c.timed("scenario.Run", func() { scenario.Run(cfg) })
	c.set("scenario.single_ue_ms_per_s", ms(single)/cfg.Duration.Seconds())
	for _, fam := range families {
		top := scenario.NewTopology(c.sz.familyUEs)
		top.Seed = c.seed
		top.Duration = c.sz.cellDur
		for i := range top.UEs {
			top.UEs[i].Seed = c.seed + int64(1000*i)
			top.UEs[i].Workload = scenario.WorkloadKind(fam)
		}
		wall := c.timed("scenario.RunTopology", func() { scenario.RunTopology(top) })
		c.set("scenario.family."+fam+".ms_per_ue_s", ms(wall)/(float64(c.sz.familyUEs)*top.Duration.Seconds()))
	}
	c.note("digest sweep-manifest seed %d %s", opts.Seed, manifestDigest(ref))
	return nil
}
