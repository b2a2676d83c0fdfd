// Package runner is the batch execution engine for scenario runs: a
// worker pool that fans independent, deterministically-seeded
// simulations out across GOMAXPROCS goroutines, deduplicating the
// topologies of one batch.
//
// Every evaluation artifact (figures, mitigation studies, ablations) is
// a set of topology runs that differ in one knob. The runs are
// embarrassingly parallel — each owns its Simulator, RNG streams and
// packet allocator — so Each executes them concurrently and streams
// each result to the batch as it lands: the caller folds what it needs
// out of it on the worker that ran it, and the pool then drops it. A
// batch therefore keeps at most one Result per worker alive, however
// many runs it holds. Runs dedupe on a hash of the full Topology (seed
// included): a topology submitted twice in one batch simulates once and
// both indices fold the same *TopologyResult. Nothing outlives the Each
// call; a topology submitted again by a later or concurrent batch
// simulates again. Results are safe to share because their accessors
// are pure readers. RunAll and Run are thin wrappers over Each for
// callers that want the Results themselves.
//
// A sweep (package experiment) is one Each batch over every artifact's
// runs; an artifact's Render runs on the sweep goroutine and submits
// nothing to the pool.
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

// Pool executes scenario runs across a bounded set of workers. It holds
// no state between batches beyond its counters. The zero value is not
// usable; create one with New or use the shared Default pool.
type Pool struct {
	sem chan struct{} // counting semaphore bounding concurrent runs

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
	MemoHits    int64 // submissions that joined an earlier index's run in their batch
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

// New creates a pool running at most workers simulations concurrently.
// workers <= 0 selects GOMAXPROCS. The bound is global across concurrent
// batches on the same pool, so concurrent callers cannot oversubscribe
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
	return &Pool{sem: make(chan struct{}, workers), runFn: run}
}

// Default is the process-wide pool every driver and CLI submits through;
// sharing one pool bounds the simulations running at once across
// concurrent callers.
var Default = New(0)

// Each executes every topology and streams the results: for each index
// i, fold(i, r) is called once the run serving i lands, on the worker
// that ran it, before the worker takes another run; started(i), if
// non-nil, is called on that worker when the run starts. Distinct
// topologies run concurrently across the pool's workers, started in
// input order; duplicate topologies within the batch execute once, and
// every index that asked for one folds the same Result, in index order.
// The pool drops a Result as soon as its folds return, so at most one
// Result per worker is alive. fold may run concurrently for different
// indices and must confine its writes to index-disjoint state; it must
// not submit back into the pool. Each returns once every fold has
// returned, and keeps nothing past that.
//
// If ctx is cancelled, runs not yet started are skipped and their
// indices are never folded; runs already in flight complete and fold.
// Determinism is unaffected by scheduling: each run's randomness derives
// only from its own topology's seed.
func (p *Pool) Each(ctx context.Context, tops []scenario.Topology, started func(i int), fold func(i int, r *scenario.TopologyResult)) {
	// A key's first index owns its run; later indices join it.
	p.met.submissions.Add(int64(len(tops)))
	first := make(map[string]int, len(tops))
	var jobs []job
	for i, top := range tops {
		k := Key(top)
		if j, ok := first[k]; ok {
			jobs[j].idx = append(jobs[j].idx, i)
			p.met.memoHits.Inc()
			continue
		}
		first[k] = len(jobs)
		jobs = append(jobs, job{top: top, idx: []int{i}})
		p.met.memoMisses.Inc()
	}

	var claimedAt time.Time
	if obs.Enabled() {
		claimedAt = time.Now()
	}
	var workers sync.WaitGroup
	for _, j := range jobs {
		if !p.acquire(ctx) {
			break
		}
		workers.Add(1)
		go func() {
			defer workers.Done()
			defer func() { <-p.sem }()
			p.execute(j, started, fold, claimedAt)
		}()
	}
	workers.Wait()
}

// job is one distinct topology of a batch and the indices it serves.
type job struct {
	top scenario.Topology
	idx []int
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

// execute runs one job on the calling worker and folds its result into
// every index it serves, then lets the result go.
func (p *Pool) execute(j job, started func(int), fold func(int, *scenario.TopologyResult), claimedAt time.Time) {
	if started != nil {
		for _, i := range j.idx {
			started(i)
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
	r := p.runFn(j.top)
	p.met.inFlight.Add(-1)
	if !start.IsZero() {
		p.met.runDur.ObserveDuration(time.Since(start))
	}

	for _, i := range j.idx {
		fold(i, r)
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

// Run executes a single scenario through the pool.
func (p *Pool) Run(cfg scenario.Config) *scenario.Result {
	return p.RunAll(context.Background(), []scenario.Config{cfg})[0]
}

// Flush counts a reset request. It drops nothing: the pool keeps no run
// past the batch that submitted it.
//
// Deprecated: there is nothing to flush; kept for callers that reset the
// pool between sweeps.
func (p *Pool) Flush() { p.met.flushes.Inc() }
