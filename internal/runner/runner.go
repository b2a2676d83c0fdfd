// Package runner is the batch execution engine for scenario runs: a
// worker pool that fans independent, deterministically-seeded simulations
// out across GOMAXPROCS goroutines, fronted by a content-addressed
// cache of the runs in flight.
//
// Every evaluation artifact (figures, mitigation studies, ablations) is a
// loop of scenario.Run calls over configs that differ in one knob. The
// runs are embarrassingly parallel — each owns its Simulator, RNG streams
// and packet allocator — so RunAll executes them concurrently while
// preserving input order in the returned slice. The cache keys on a hash
// of the full Config (seed included): a config submitted twice in one
// batch, or by a concurrent batch while it is still in flight, simulates
// once and every caller receives the same *Result. A batch's entries
// leave the cache when its RunAll returns, so the pool holds no Result
// past the batch that asked for it and a sweep's memory is one batch's
// worth; a config submitted again later simulates again. Results are
// safe to share because their accessors are pure readers; callers that
// need a private, mutable Result should call scenario.Run directly.
package runner

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"sync"
	"time"

	"athena/internal/obs"
	"athena/internal/scenario"
)

// Key returns the content address of a configuration: a SHA-256 over the
// full Config value, including the seed and every nested slice. Two
// configs with equal keys describe byte-identical simulations, because
// scenario.Run is a pure function of its Config.
func Key(cfg scenario.Config) string {
	h := sha256.New()
	fmt.Fprintf(h, "%#v", cfg)
	return hex.EncodeToString(h.Sum(nil))
}

// Pool executes scenario runs across a bounded set of workers,
// deduplicating the configs of the batches in flight. The zero value is
// not usable; create one with New or use the shared Default pool.
type Pool struct {
	sem chan struct{} // counting semaphore bounding concurrent runs

	mu    sync.Mutex
	cache map[string]*entry

	runFn func(scenario.Config) *scenario.Result // seam for tests

	met poolMetrics
}

// poolMetrics holds a pool's instrumentation. The metrics are value
// types embedded in the Pool, so private pools get working Stats without
// polluting the global registry; only Default's are registered by name.
// Recording is gated by the obs package flag, so an un-observed process
// pays one atomic load per event.
type poolMetrics struct {
	submissions obs.Counter
	memoHits    obs.Counter
	memoMisses  obs.Counter
	flushes     obs.Counter
	inFlight    obs.Gauge
	queueWait   obs.Histogram // claim → worker start, ns
	runDur      obs.Histogram // runFn wall time, ns
}

// The shared Default pool's metrics appear in registry snapshots under
// runner.default.*.
func init() {
	obs.RegisterCounter("runner.default.submissions", &Default.met.submissions)
	obs.RegisterCounter("runner.default.memo_hits", &Default.met.memoHits)
	obs.RegisterCounter("runner.default.memo_misses", &Default.met.memoMisses)
	obs.RegisterCounter("runner.default.flushes", &Default.met.flushes)
	obs.RegisterGauge("runner.default.in_flight", &Default.met.inFlight)
	obs.RegisterHistogram("runner.default.queue_wait_ns", &Default.met.queueWait)
	obs.RegisterHistogram("runner.default.run_duration_ns", &Default.met.runDur)
}

// Stats is a point-in-time read of a pool's execution counters. Values
// accumulate only while obs metrics are enabled (see obs.Enable).
type Stats struct {
	Submissions int64 // configs submitted through RunAll (duplicates included)
	MemoHits    int64 // submissions that joined an entry in the batch or in flight
	MemoMisses  int64 // submissions that claimed a fresh execution
	InFlight    int64 // runs currently executing on workers
	Flushes     int64 // Flush calls
}

// Stats reads the pool's counters.
func (p *Pool) Stats() Stats {
	return Stats{
		Submissions: p.met.submissions.Value(),
		MemoHits:    p.met.memoHits.Value(),
		MemoMisses:  p.met.memoMisses.Value(),
		InFlight:    p.met.inFlight.Value(),
		Flushes:     p.met.flushes.Value(),
	}
}

// entry is one deduplicated run. res is written exactly once, before done is
// closed; readers load it only after <-done, so the close provides the
// happens-before edge.
type entry struct {
	done chan struct{}
	res  *scenario.Result
}

// New creates a pool running at most workers simulations concurrently.
// workers <= 0 selects GOMAXPROCS. The bound is global across concurrent
// RunAll calls on the same pool, so nesting batch submissions cannot
// oversubscribe the machine.
func New(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Pool{
		sem:   make(chan struct{}, workers),
		cache: make(map[string]*entry),
		runFn: scenario.Run,
	}
}

// Default is the process-wide pool every driver and CLI submits through;
// sharing one pool bounds the simulations running at once across
// concurrent drivers, and lets a driver join a config another driver has
// in flight.
var Default = New(0)

// Run executes a single scenario through the pool, or joins the run of
// the same config in flight.
func (p *Pool) Run(cfg scenario.Config) *scenario.Result {
	return p.RunAll(context.Background(), []scenario.Config{cfg})[0]
}

// RunAll executes every config and returns the results in input order.
// Distinct configs run concurrently across the pool's workers; duplicate
// configs — within the batch, or in flight for a concurrent batch —
// execute once and share a Result. Before returning, RunAll removes the
// cache entries it claimed, so a config submitted after it returns
// simulates again and the pool keeps no Result alive. Determinism is
// unaffected by scheduling: each run's randomness derives only from its
// own config's seed.
//
// If ctx is cancelled, runs not yet started are skipped and their slots
// in the returned slice are nil; runs already in flight complete.
func (p *Pool) RunAll(ctx context.Context, cfgs []scenario.Config) []*scenario.Result {
	type job struct {
		key string
		cfg scenario.Config
		e   *entry
	}

	// Claim cache entries under one lock pass: the first batch to see a
	// key owns its execution, later arrivals only wait on done.
	p.met.submissions.Add(int64(len(cfgs)))
	entries := make([]*entry, len(cfgs))
	var jobs []job
	p.mu.Lock()
	for i, cfg := range cfgs {
		k := Key(cfg)
		e, ok := p.cache[k]
		if !ok {
			e = &entry{done: make(chan struct{})}
			p.cache[k] = e
			jobs = append(jobs, job{key: k, cfg: cfg, e: e})
			p.met.memoMisses.Inc()
		} else {
			p.met.memoHits.Inc()
		}
		entries[i] = e
	}
	p.mu.Unlock()

	var wg sync.WaitGroup
	submitted := 0
	claimedAt := time.Time{}
	if obs.Enabled() {
		claimedAt = time.Now()
	}
	for _, j := range jobs {
		select {
		case <-ctx.Done():
		case p.sem <- struct{}{}:
			submitted++
			wg.Add(1)
			go func(j job) {
				defer wg.Done()
				defer func() { <-p.sem }()
				var start time.Time
				if obs.Enabled() {
					start = time.Now()
					if !claimedAt.IsZero() {
						p.met.queueWait.ObserveDuration(start.Sub(claimedAt))
					}
				}
				p.met.inFlight.Add(1)
				j.e.res = p.runFn(j.cfg)
				p.met.inFlight.Add(-1)
				if !start.IsZero() {
					p.met.runDur.ObserveDuration(time.Since(start))
				}
				close(j.e.done)
			}(j)
			continue
		}
		break
	}
	// Cancelled with jobs unlaunched: unpublish them so a later call can
	// still execute those configs, and unblock any waiters with a nil
	// result.
	if submitted < len(jobs) {
		p.mu.Lock()
		for _, j := range jobs[submitted:] {
			delete(p.cache, j.key)
			close(j.e.done)
		}
		p.mu.Unlock()
	}
	wg.Wait()
	// The claimed entries leave with the batch. A Flush may have removed
	// one already and a later batch filed a fresh entry under its key, so
	// only this batch's own entry is deleted.
	p.mu.Lock()
	for _, j := range jobs[:submitted] {
		if p.cache[j.key] == j.e {
			delete(p.cache, j.key)
		}
	}
	p.mu.Unlock()

	results := make([]*scenario.Result, len(cfgs))
	for i, e := range entries {
		// Entries owned by a concurrent batch may still be running; wait
		// unless cancelled.
		select {
		case <-e.done:
			results[i] = e.res
		case <-ctx.Done():
			select { // prefer the result if it raced the cancellation
			case <-e.done:
				results[i] = e.res
			default:
			}
		}
	}
	return results
}

// ForEach runs fn(0..n-1) across the pool's workers and waits for all of
// them. It is the generic parallel-for for driver stages that build their
// own simulations or correlations instead of going through scenario.Run;
// fn must confine its writes to index-disjoint state and must not submit
// back into the same pool (fn holds a worker slot for its whole run, so a
// nested RunAll could starve). If ctx is cancelled, remaining indices are
// skipped.
func (p *Pool) ForEach(ctx context.Context, n int, fn func(i int)) {
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		select {
		case <-ctx.Done():
			wg.Wait()
			return
		case p.sem <- struct{}{}:
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer func() { <-p.sem }()
			fn(i)
		}(i)
	}
	wg.Wait()
}

// Flush drops every completed cache entry. An in-flight entry — one
// whose run has not yet closed done — is never removed: the running
// goroutine still owns the cache slot, so every waiter blocked on it in a
// concurrent RunAll (and every later arrival that joined before
// completion) receives the Result that run produces, and the config stays
// deduplicated until it finishes. A Flush racing a batch therefore cannot
// drop an entry another waiter is blocked on, lose a result, or cause a
// duplicate simulation. Since RunAll removes its entries when it returns,
// a completed entry lingers only between its run finishing and its batch
// returning; Flush is kept for callers that reset the pool between
// sweeps.
func (p *Pool) Flush() {
	p.met.flushes.Inc()
	p.mu.Lock()
	defer p.mu.Unlock()
	for k, e := range p.cache {
		select {
		case <-e.done:
			delete(p.cache, k)
		default:
		}
	}
}

// CacheLen reports the number of configs held by the batches in flight.
func (p *Pool) CacheLen() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.cache)
}
