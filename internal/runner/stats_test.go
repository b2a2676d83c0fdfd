package runner

import (
	"context"
	"testing"
	"time"

	"athena/internal/obs"
	"athena/internal/scenario"
)

// fakePool returns a private pool whose runFn spins briefly instead of
// simulating, so stats tests stay fast and deterministic.
func fakePool(workers int) *Pool {
	p := New(workers)
	p.runFn = func(top scenario.Topology) *scenario.TopologyResult {
		time.Sleep(time.Millisecond)
		return fakeResult(top)
	}
	return p
}

// TestStatsAccounting pins the hit/miss bookkeeping across RunAll and
// Flush: a fresh config is a miss, a duplicate in the same batch is a
// hit, and a config submitted again by a later batch misses again,
// since nothing outlives the batch that ran it.
func TestStatsAccounting(t *testing.T) {
	obs.Enable()
	defer obs.Disable()

	p := fakePool(2)
	a, b := scenario.Defaults(), scenario.Defaults()
	a.Seed, b.Seed = 1, 2
	ctx := context.Background()

	// Batch 1: two distinct configs plus an in-batch duplicate of a.
	p.RunAll(ctx, []scenario.Config{a, b, a})
	st := p.Stats()
	if st.Submissions != 3 || st.MemoMisses != 2 || st.MemoHits != 1 {
		t.Fatalf("after batch 1: %+v, want 3 submissions, 2 misses, 1 hit", st)
	}
	if st.InFlight != 0 {
		t.Fatalf("in flight = %d after batch drained", st.InFlight)
	}

	// Batch 2: nothing of batch 1 is kept, so both configs run again.
	p.RunAll(ctx, []scenario.Config{a, b})
	st = p.Stats()
	if st.Submissions != 5 || st.MemoMisses != 4 || st.MemoHits != 1 {
		t.Fatalf("after batch 2: %+v, want 5 submissions, 4 misses, 1 hit", st)
	}

	// Flush counts, and the same config misses again after it.
	p.Flush()
	p.Run(a)
	st = p.Stats()
	if st.Flushes != 1 || st.MemoMisses != 5 || st.Submissions != 6 {
		t.Fatalf("after flush+rerun: %+v, want 1 flush, 5 misses, 6 submissions", st)
	}
}

// TestStatsInFlightDuringRun observes the in-flight gauge from inside a
// running job.
func TestStatsInFlightDuringRun(t *testing.T) {
	obs.Enable()
	defer obs.Disable()

	p := New(1)
	observed := make(chan int64, 1)
	p.runFn = func(top scenario.Topology) *scenario.TopologyResult {
		observed <- p.Stats().InFlight
		return fakeResult(top)
	}
	p.Run(scenario.Defaults())
	if got := <-observed; got != 1 {
		t.Fatalf("in flight during run = %d, want 1", got)
	}
	if got := p.Stats().InFlight; got != 0 {
		t.Fatalf("in flight after run = %d, want 0", got)
	}
}

// TestStatsHistogramsRecord checks the queue-wait and run-duration
// histograms accumulate one observation per executed job.
func TestStatsHistogramsRecord(t *testing.T) {
	obs.Enable()
	defer obs.Disable()

	p := fakePool(1)
	cfgs := make([]scenario.Config, 3)
	for i := range cfgs {
		cfgs[i] = scenario.Defaults()
		cfgs[i].Seed = int64(100 + i)
	}
	p.RunAll(context.Background(), cfgs)
	if n := p.met.runDur.Count(); n != 3 {
		t.Fatalf("run-duration observations = %d, want 3", n)
	}
	if n := p.met.queueWait.Count(); n != 3 {
		t.Fatalf("queue-wait observations = %d, want 3", n)
	}
}

// TestDefaultPoolMetricsRegistered ensures the shared pool's counters
// are visible in registry snapshots under runner.default.*.
func TestDefaultPoolMetricsRegistered(t *testing.T) {
	s := obs.TakeSnapshot()
	for _, name := range []string{
		"runner.default.submissions",
		"runner.default.memo_hits",
		"runner.default.memo_misses",
		"runner.default.flushes",
	} {
		if _, ok := s.Counters[name]; !ok {
			t.Fatalf("counter %s not registered", name)
		}
	}
	if _, ok := s.Gauges["runner.default.in_flight"]; !ok {
		t.Fatal("gauge runner.default.in_flight not registered")
	}
	for _, name := range []string{
		"runner.default.queue_wait_ns",
		"runner.default.run_duration_ns",
	} {
		if _, ok := s.Histograms[name]; !ok {
			t.Fatalf("histogram %s not registered", name)
		}
	}
}
