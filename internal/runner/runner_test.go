package runner

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	"athena/internal/ran"
	"athena/internal/scenario"
	"athena/internal/units"
)

// testConfigs is a small matrix over seeds and access technologies, kept
// short so the determinism test stays fast under -race.
func testConfigs() []scenario.Config {
	var cfgs []scenario.Config
	for _, seed := range []int64{1, 7} {
		for _, access := range []scenario.AccessKind{scenario.Access5G, scenario.AccessWired} {
			cfg := scenario.Defaults()
			cfg.Seed = seed
			cfg.Duration = 2 * time.Second
			cfg.Access = access
			cfgs = append(cfgs, cfg)
		}
	}
	cfg := scenario.Defaults()
	cfg.Seed = 3
	cfg.Duration = 2 * time.Second
	cfg.CrossUEs = 2
	cfg.CrossPhases = []ran.CrossPhase{{Start: 0, Rate: 12 * units.Mbps}}
	cfgs = append(cfgs, cfg)
	return cfgs
}

// TestRunAllMatchesSerial asserts that parallel, deduplicated execution is
// byte-identical to direct serial scenario.Run for a seed/config matrix.
// Run under -race this also exercises the pool's synchronization.
func TestRunAllMatchesSerial(t *testing.T) {
	cfgs := testConfigs()

	want := make([]string, len(cfgs))
	for i, cfg := range cfgs {
		want[i] = scenario.Run(cfg).TopologyResult.Digest()
	}

	p := New(4)
	got := p.RunAll(context.Background(), cfgs)
	if len(got) != len(cfgs) {
		t.Fatalf("RunAll returned %d results for %d configs", len(got), len(cfgs))
	}
	for i := range cfgs {
		if d := got[i].TopologyResult.Digest(); d != want[i] {
			t.Errorf("config %d: parallel result diverges from serial\nserial: %.200s\nparallel: %.200s",
				i, want[i], d)
		}
	}
}

func TestRunAllPreservesOrderAndMemoizes(t *testing.T) {
	a := scenario.Defaults()
	a.Seed = 1
	a.Duration = time.Second
	b := a
	b.Seed = 2

	p := New(4)
	res := p.RunAll(context.Background(), []scenario.Config{a, b, a})
	if res[0] == nil || res[1] == nil || res[2] == nil {
		t.Fatal("nil result without cancellation")
	}
	if res[0].TopologyResult != res[2].TopologyResult {
		t.Error("duplicate config within a batch should share one run")
	}
	if res[0].TopologyResult == res[1].TopologyResult {
		t.Error("distinct configs must not share a run")
	}
	if res[0].Cfg.Seed != 1 || res[1].Cfg.Seed != 2 {
		t.Errorf("order not preserved: seeds %d,%d", res[0].Cfg.Seed, res[1].Cfg.Seed)
	}
	// A later batch simulates again, to the same bytes.
	again := p.Run(a)
	if again.TopologyResult == res[0].TopologyResult {
		t.Error("a config submitted after its batch returned was recalled, not re-run")
	}
	if again.TopologyResult.Digest() != res[0].TopologyResult.Digest() {
		t.Error("re-running a config changed its result")
	}
}

func TestRunCountsExecutions(t *testing.T) {
	var runs atomic.Int64
	p := New(4)
	p.runFn = func(top scenario.Topology) *scenario.TopologyResult {
		runs.Add(1)
		return fakeResult(top)
	}
	cfgs := make([]scenario.Config, 16)
	for i := range cfgs {
		cfgs[i] = scenario.Defaults()
		cfgs[i].Seed = int64(i % 4) // 4 distinct configs, 4 copies each
	}
	res := p.RunAll(context.Background(), cfgs)
	if runs.Load() != 4 {
		t.Fatalf("executed %d runs, want 4 (in-batch duplicates run once)", runs.Load())
	}
	for i := range cfgs {
		if res[i].TopologyResult != res[i%4].TopologyResult {
			t.Fatalf("slot %d does not share the run of its first copy", i)
		}
	}
	p.RunAll(context.Background(), cfgs)
	if runs.Load() != 8 {
		t.Fatalf("re-submission executed %d runs in all, want 8 (nothing outlives a batch)", runs.Load())
	}
}

func TestRunAllCancellation(t *testing.T) {
	p := New(1)
	block := make(chan struct{})
	p.runFn = func(top scenario.Topology) *scenario.TopologyResult {
		<-block
		return fakeResult(top)
	}
	cfgs := make([]scenario.Config, 4)
	for i := range cfgs {
		cfgs[i] = scenario.Defaults()
		cfgs[i].Seed = int64(i + 1)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan []*scenario.Result, 1)
	go func() { done <- p.RunAll(ctx, cfgs) }()
	time.Sleep(20 * time.Millisecond) // let the single worker start job 0
	cancel()
	close(block)
	res := <-done
	// Unstarted jobs were skipped: running them again
	// (uncancelled) must work and fill every slot.
	p.runFn = fakeResult
	res2 := p.RunAll(context.Background(), cfgs)
	for i, r := range res2 {
		if r == nil || r.Cfg.Seed != cfgs[i].Seed {
			t.Fatalf("slot %d not recoverable after cancellation: %+v", i, r)
		}
	}
	_ = res
}

func TestKeyDistinguishesConfigs(t *testing.T) {
	key := func(cfg scenario.Config) string { return Key(scenario.SingleUE(cfg)) }
	a := scenario.Defaults()
	b := a
	if key(a) != key(b) {
		t.Fatal("identical configs must share a key")
	}
	b.Seed++
	if key(a) == key(b) {
		t.Fatal("seed must be part of the key")
	}
	c := a
	c.Spikes = []scenario.Spike{{Start: time.Second, End: 2 * time.Second, Extra: time.Millisecond}}
	if key(a) == key(c) {
		t.Fatal("nested slices must be part of the key")
	}
	d := a
	d.MaxRate = a.MaxRate + units.BitRate(1)
	if key(a) == key(d) {
		t.Fatal("rate fields must be part of the key")
	}
}

// A pool worker executing a sharded multi-cell RunTopology must
// complete even on a single-worker pool: the shards run on their own
// goroutines started by internal/scenario, not by submitting back into
// the pool, so holding the only worker slot for the whole topology run
// cannot starve the shards of each other. Guards the fan-out layering of
// the sharded engine; run under -race in CI.
func TestEachShardedTopologyNoStarvation(t *testing.T) {
	p := New(1) // one slot: any nested submission would deadlock
	top := scenario.NewMultiCellTopology(4, 2)
	top.Duration = 500 * time.Millisecond
	done := make(chan string, 1)
	go func() {
		p.Each(context.Background(), []scenario.Topology{top}, nil, func(_ int, r *scenario.TopologyResult) {
			done <- r.Digest()
		})
	}()
	select {
	case d := <-done:
		if d == "" {
			t.Fatal("sharded topology produced an empty digest")
		}
	case <-time.After(2 * time.Minute):
		t.Fatal("sharded RunTopology starved inside a single-worker pool")
	}
}

// fakeResult stands in for a simulation: a result carrying its topology
// and the one UE slot the Config view reads.
func fakeResult(top scenario.Topology) *scenario.TopologyResult {
	return &scenario.TopologyResult{Top: top, UEs: []*scenario.UEResult{{}}}
}

// seededTops builds n distinct topologies, seeds 1..n.
func seededTops(n int) []scenario.Topology {
	tops := make([]scenario.Topology, n)
	for i := range tops {
		tops[i] = scenario.SingleUE(scenario.Defaults())
		tops[i].Seed = int64(i + 1)
	}
	return tops
}

// TestEachBoundsLiveResults pins fold-then-drop: across a batch far
// larger than the pool, Results created minus folds returned never
// exceeds the workers, so a batch keeps one Result per worker alive
// however many runs it holds. A pool that held results until the batch
// ended would reach one per run.
func TestEachBoundsLiveResults(t *testing.T) {
	const workers, n = 2, 64
	var created, folded, peak atomic.Int64
	p := New(workers)
	p.runFn = func(top scenario.Topology) *scenario.TopologyResult {
		live := created.Add(1) - folded.Load()
		for {
			pk := peak.Load()
			if live <= pk || peak.CompareAndSwap(pk, live) {
				break
			}
		}
		return fakeResult(top)
	}
	tops := seededTops(n)
	seen := make([]bool, n)
	p.Each(context.Background(), tops, nil, func(i int, r *scenario.TopologyResult) {
		if r.Top.Seed != tops[i].Seed {
			t.Errorf("index %d folded the run of seed %d", i, r.Top.Seed)
		}
		seen[i] = true
		folded.Add(1)
	})
	if pk := peak.Load(); pk > workers {
		t.Fatalf("%d results alive at once, want at most %d (one per worker)", pk, workers)
	}
	for i, ok := range seen {
		if !ok {
			t.Fatalf("index %d never folded", i)
		}
	}
	if created.Load() != n || folded.Load() != n {
		t.Fatalf("created %d, folded %d, want %d each", created.Load(), folded.Load(), n)
	}
}
