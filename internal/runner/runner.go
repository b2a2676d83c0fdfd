// Package runner is the batch execution engine for scenario runs: a
// worker pool that fans independent, deterministically-seeded
// simulations out across GOMAXPROCS goroutines, deduplicating the
// topologies in flight.
//
// Every evaluation artifact (figures, mitigation studies, ablations) is
// a set of topology runs that differ in one knob. The runs are
// embarrassingly parallel — each owns its Simulator, RNG streams and
// packet allocator — so Each executes them concurrently and streams
// each result to its subscribers as it lands: the subscribers fold what
// they need out of it on the worker that ran it, and the pool then drops
// it. A batch therefore keeps at most one Result per worker alive,
// however many runs it holds. Runs dedupe on a hash of the full Topology
// (seed included): a topology submitted twice in one batch, or by a
// concurrent batch while it is still in flight, simulates once and every
// subscriber folds the same *TopologyResult. Nothing is kept once a run
// has been folded; a topology submitted again later simulates again.
// Results are safe to share because their accessors are pure readers.
// RunAll and Run are thin wrappers over Each for callers that want the
// Results themselves.
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

// Key returns the content address of a topology: a SHA-256 over the full
// Topology value, including the seed and every nested slice. Two
// topologies with equal keys describe byte-identical simulations,
// because scenario.RunTopology is a pure function of its Topology.
func Key(top scenario.Topology) string {
	h := sha256.New()
	fmt.Fprintf(h, "%#v", top)
	return hex.EncodeToString(h.Sum(nil))
}

// Pool executes scenario runs across a bounded set of workers,
// deduplicating the topologies of the batches in flight. The zero value
// is not usable; create one with New or use the shared Default pool.
type Pool struct {
	sem chan struct{} // counting semaphore bounding concurrent runs

	mu    sync.Mutex
	cache map[string]*entry // claimed runs that have not landed yet

	runFn func(scenario.Topology) *scenario.TopologyResult

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
	Submissions int64 // topologies submitted (duplicates included)
	MemoHits    int64 // submissions that joined a run in the batch or in flight
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

// entry is one deduplicated run: the subscribers its result feeds. subs
// and running are guarded by Pool.mu. The subscribers present when the
// run is launched are told then that it started; one that joins mid-run
// is told when it lands, just before its fold.
type entry struct {
	key     string
	top     scenario.Topology
	subs    []sub
	running bool
}

// sub is one index of one batch waiting on a run; told records that its
// batch's started callback has run for it.
type sub struct {
	b    *batch
	i    int
	told bool
}

// batch is one Each call: its callbacks, and the subscriptions not yet
// resolved (folded, or withdrawn by cancellation).
type batch struct {
	started func(i int)
	fold    func(i int, r *scenario.TopologyResult)
	pending sync.WaitGroup
}

// New creates a pool running at most workers simulations concurrently.
// workers <= 0 selects GOMAXPROCS. The bound is global across concurrent
// batches on the same pool, so nesting submissions cannot oversubscribe
// the machine.
func New(workers int) *Pool { return NewFunc(workers, scenario.RunTopology) }

// NewFunc is New with the function that executes one run in place of
// scenario.RunTopology — a seam for instrumented or stubbed execution.
// run must be a pure function of its Topology for deduplication to be
// sound.
func NewFunc(workers int, run func(scenario.Topology) *scenario.TopologyResult) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Pool{
		sem:   make(chan struct{}, workers),
		cache: make(map[string]*entry),
		runFn: run,
	}
}

// Default is the process-wide pool every driver and CLI submits through;
// sharing one pool bounds the simulations running at once across
// concurrent callers, and lets a caller join a topology another has in
// flight.
var Default = New(0)

// Each executes every topology and streams the results: for each index
// i, fold(i, r) is called once the run serving i lands, on the worker
// that ran it, before the worker takes another run; started(i), if
// non-nil, is called on that worker when the run starts (just before
// the fold, for an index that joined a run already in flight).
// Distinct topologies run concurrently across the pool's workers,
// started in input order; duplicate topologies — within the batch, or
// in flight for a concurrent batch — execute once, and every subscriber
// folds the same Result, in index order within a batch. The pool drops
// a Result as soon as its folds return, so at most one Result per
// worker is alive. fold may run concurrently for different indices and
// must confine its writes to index-disjoint state; it must not submit
// back into the pool. Each returns once every fold has returned.
//
// If ctx is cancelled, runs not yet started are skipped and their
// indices are never folded; runs already in flight complete and fold.
// Determinism is unaffected by scheduling: each run's randomness derives
// only from its own topology's seed.
func (p *Pool) Each(ctx context.Context, tops []scenario.Topology, started func(i int), fold func(i int, r *scenario.TopologyResult)) {
	b := &batch{started: started, fold: fold}
	b.pending.Add(len(tops))

	// Claim entries under one lock pass: the first batch to see a key
	// owns its execution, later arrivals subscribe to it.
	p.met.submissions.Add(int64(len(tops)))
	keys := make([]string, len(tops))
	for i, top := range tops {
		keys[i] = Key(top)
	}
	var jobs []*entry
	p.mu.Lock()
	for i, top := range tops {
		k := keys[i]
		e, ok := p.cache[k]
		if !ok {
			e = &entry{key: k, top: top}
			p.cache[k] = e
			jobs = append(jobs, e)
			p.met.memoMisses.Inc()
		} else {
			p.met.memoHits.Inc()
		}
		e.subs = append(e.subs, sub{b: b, i: i})
	}
	p.mu.Unlock()

	var claimedAt time.Time
	if obs.Enabled() {
		claimedAt = time.Now()
	}
	var workers sync.WaitGroup
	// launch starts e on the slot the caller holds.
	launch := func(e *entry) {
		p.mu.Lock()
		e.running = true
		subs := append([]sub(nil), e.subs...)
		for i := range e.subs {
			e.subs[i].told = true
		}
		p.mu.Unlock()
		workers.Add(1)
		go func() {
			defer workers.Done()
			defer func() { <-p.sem }()
			p.execute(e, subs, claimedAt)
		}()
	}
	// Jobs start in input order, one per worker slot, until ctx is
	// cancelled.
	queue := jobs
	for len(queue) > 0 && p.acquire(ctx) {
		launch(queue[0])
		queue = queue[1:]
	}
	// Cancelled with jobs unlaunched: withdraw this batch from them.
	// Another batch's subscribers keep a job alive, so it still runs
	// for them; a job nobody waits on is unpublished.
	for _, e := range queue {
		p.mu.Lock()
		e.subs = withdraw(b, e.subs)
		orphan := len(e.subs) == 0
		if orphan {
			delete(p.cache, e.key)
		}
		p.mu.Unlock()
		if !orphan {
			p.sem <- struct{}{}
			launch(e)
		}
	}
	// Cancelled while subscribed to another batch's runs that have not
	// started: stop waiting for them.
	if ctx.Err() != nil {
		p.mu.Lock()
		for _, e := range p.cache {
			if !e.running {
				e.subs = withdraw(b, e.subs)
			}
		}
		p.mu.Unlock()
	}
	b.pending.Wait()
	workers.Wait()
}

// acquire takes a worker slot, or reports false once ctx is cancelled.
// A slot won in a race with the cancellation is handed back, so no run
// starts after ctx is done.
func (p *Pool) acquire(ctx context.Context) bool {
	select {
	case <-ctx.Done():
		return false
	case p.sem <- struct{}{}:
	}
	if ctx.Err() != nil {
		<-p.sem
		return false
	}
	return true
}

// withdraw removes b's subscriptions from subs, resolving each; the
// caller holds the pool's lock.
func withdraw(b *batch, subs []sub) []sub {
	kept := subs[:0]
	for _, s := range subs {
		if s.b == b {
			b.pending.Done()
			continue
		}
		kept = append(kept, s)
	}
	return kept
}

// execute runs one launched entry on the calling worker: it tells the
// subscribers present at launch that it started, and once it lands,
// folds the result into every subscriber present then and lets the
// result go.
func (p *Pool) execute(e *entry, subs []sub, claimedAt time.Time) {
	for _, s := range subs {
		if s.b.started != nil {
			s.b.started(s.i)
		}
	}

	var start time.Time
	if obs.Enabled() {
		start = time.Now()
		if !claimedAt.IsZero() {
			p.met.queueWait.ObserveDuration(start.Sub(claimedAt))
		}
	}
	p.met.inFlight.Add(1)
	r := p.runFn(e.top)
	p.met.inFlight.Add(-1)
	if !start.IsZero() {
		p.met.runDur.ObserveDuration(time.Since(start))
	}

	// Landed: the entry leaves the cache, so a later submission of the
	// same topology simulates again, and the subscribers take the result.
	p.mu.Lock()
	if p.cache[e.key] == e {
		delete(p.cache, e.key)
	}
	subs, e.subs = e.subs, nil
	p.mu.Unlock()
	for _, s := range subs {
		if !s.told && s.b.started != nil {
			s.b.started(s.i)
		}
		s.b.fold(s.i, r)
		s.b.pending.Done()
	}
}

// RunAll executes every config and returns the results in input order:
// a wrapper over Each that keeps each Result instead of folding it.
// Duplicate configs share one run, so their Results share one
// TopologyResult. If ctx is cancelled, the slots of runs that never
// started are nil.
func (p *Pool) RunAll(ctx context.Context, cfgs []scenario.Config) []*scenario.Result {
	tops := make([]scenario.Topology, len(cfgs))
	for i, cfg := range cfgs {
		tops[i] = scenario.SingleUE(cfg)
	}
	results := make([]*scenario.Result, len(cfgs))
	p.Each(ctx, tops, nil, func(i int, tr *scenario.TopologyResult) {
		results[i] = tr.SingleUE(cfgs[i])
	})
	return results
}

// Run executes a single scenario through the pool, or joins the run of
// the same config in flight.
func (p *Pool) Run(cfg scenario.Config) *scenario.Result {
	return p.RunAll(context.Background(), []scenario.Config{cfg})[0]
}

// ForEach runs fn(0..n-1) across the pool's workers and waits for all of
// them. It is the generic parallel-for for driver stages that build their
// own simulations or correlations instead of going through a topology
// run; fn must confine its writes to index-disjoint state and must not
// submit back into the same pool (fn holds a worker slot for its whole
// run, so a nested Each could starve). If ctx is cancelled, remaining
// indices are skipped.
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

// Flush counts a reset request. It drops nothing: the pool holds only
// runs in flight, whose subscribers are waiting on them, and a run
// leaves the pool the moment it lands.
//
// Deprecated: there is nothing to flush; kept for callers that reset the
// pool between sweeps.
func (p *Pool) Flush() { p.met.flushes.Inc() }

// CacheLen reports the number of runs claimed and not yet landed.
func (p *Pool) CacheLen() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.cache)
}
