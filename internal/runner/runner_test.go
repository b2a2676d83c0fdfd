package runner

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	"athena/internal/obs"
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
	if res[0] != res[2] {
		t.Error("duplicate config within a batch should share one Result")
	}
	if res[0] == res[1] {
		t.Error("distinct configs must not share a Result")
	}
	if res[0].Cfg.Seed != 1 || res[1].Cfg.Seed != 2 {
		t.Errorf("order not preserved: seeds %d,%d", res[0].Cfg.Seed, res[1].Cfg.Seed)
	}
	// The batch's entries leave with it: the pool holds no Result.
	if n := p.CacheLen(); n != 0 {
		t.Errorf("CacheLen after RunAll returned = %d, want 0", n)
	}
	// A later batch simulates again, to the same bytes.
	again := p.Run(a)
	if again == res[0] {
		t.Error("a config submitted after its batch returned was recalled, not re-run")
	}
	if again.TopologyResult.Digest() != res[0].TopologyResult.Digest() {
		t.Error("re-running a config changed its result")
	}
}

func TestRunCountsExecutions(t *testing.T) {
	var runs atomic.Int64
	p := New(4)
	p.runFn = func(cfg scenario.Config) *scenario.Result {
		runs.Add(1)
		return &scenario.Result{Cfg: cfg}
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
		if res[i] != res[i%4] {
			t.Fatalf("slot %d does not share the Result of its first copy", i)
		}
	}
	if n := p.CacheLen(); n != 0 {
		t.Fatalf("CacheLen after RunAll returned = %d, want 0", n)
	}
	p.RunAll(context.Background(), cfgs)
	if runs.Load() != 8 {
		t.Fatalf("re-submission executed %d runs in all, want 8 (nothing outlives a batch)", runs.Load())
	}
}

func TestRunAllCancellation(t *testing.T) {
	p := New(1)
	block := make(chan struct{})
	p.runFn = func(cfg scenario.Config) *scenario.Result {
		<-block
		return &scenario.Result{Cfg: cfg}
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
	// Unstarted jobs were skipped and unpublished: running them again
	// (uncancelled) must work and fill every slot.
	p.runFn = func(cfg scenario.Config) *scenario.Result { return &scenario.Result{Cfg: cfg} }
	res2 := p.RunAll(context.Background(), cfgs)
	for i, r := range res2 {
		if r == nil || r.Cfg.Seed != cfgs[i].Seed {
			t.Fatalf("slot %d not recoverable after cancellation: %+v", i, r)
		}
	}
	_ = res
}

func TestForEach(t *testing.T) {
	p := New(4)
	out := make([]int, 100)
	p.ForEach(context.Background(), len(out), func(i int) { out[i] = i * i })
	for i, v := range out {
		if v != i*i {
			t.Fatalf("index %d = %d", i, v)
		}
	}
}

func TestKeyDistinguishesConfigs(t *testing.T) {
	a := scenario.Defaults()
	b := a
	if Key(a) != Key(b) {
		t.Fatal("identical configs must share a key")
	}
	b.Seed++
	if Key(a) == Key(b) {
		t.Fatal("seed must be part of the key")
	}
	c := a
	c.Spikes = []scenario.Spike{{Start: time.Second, End: 2 * time.Second, Extra: time.Millisecond}}
	if Key(a) == Key(c) {
		t.Fatal("nested slices must be part of the key")
	}
	d := a
	d.MaxRate = a.MaxRate + units.BitRate(1)
	if Key(a) == Key(d) {
		t.Fatal("rate fields must be part of the key")
	}
}

// TestFlushKeepsInFlightEntries pins the documented Flush contract and
// the in-flight dedupe that outlives drop-on-return: a second batch
// submitting a config while the first batch runs it joins that run, a
// Flush racing them never removes the running entry, both receive the
// one Result that run produces, and once both return the pool is empty.
func TestFlushKeepsInFlightEntries(t *testing.T) {
	obs.Enable() // the hit counter tells when the second batch has joined
	defer obs.Disable()

	p := New(2)
	started := make(chan struct{})
	block := make(chan struct{})
	var execs atomic.Int32
	p.runFn = func(cfg scenario.Config) *scenario.Result {
		if execs.Add(1) == 1 {
			close(started)
		}
		<-block
		return &scenario.Result{Cfg: cfg}
	}
	cfg := scenario.Defaults()

	resCh := make(chan *scenario.Result, 2)
	go func() { resCh <- p.Run(cfg) }()
	<-started
	// A second caller joins the in-flight entry while it is blocked.
	go func() { resCh <- p.Run(cfg) }()
	for p.Stats().MemoHits == 0 {
		time.Sleep(time.Millisecond)
	}

	// Flush mid-flight: the running entry must survive.
	p.Flush()
	if n := p.CacheLen(); n != 1 {
		t.Fatalf("CacheLen after mid-flight Flush = %d, want 1 (in-flight entry dropped)", n)
	}

	close(block)
	a, b := <-resCh, <-resCh
	if a == nil || b == nil {
		t.Fatal("a waiter lost its result to the racing Flush")
	}
	if a != b {
		t.Fatal("waiters received different Results for one config")
	}
	if got := execs.Load(); got != 1 {
		t.Fatalf("config simulated %d times, want exactly 1", got)
	}
	if n := p.CacheLen(); n != 0 {
		t.Fatalf("CacheLen after both batches returned = %d, want 0", n)
	}
}

func TestFlush(t *testing.T) {
	p := New(2)
	p.runFn = func(cfg scenario.Config) *scenario.Result { return &scenario.Result{Cfg: cfg} }
	cfg := scenario.Defaults()
	first := p.Run(cfg)
	p.Flush()
	if p.CacheLen() != 0 {
		t.Fatalf("CacheLen after Flush = %d", p.CacheLen())
	}
	if second := p.Run(cfg); second == first {
		t.Fatal("Flush should force re-execution")
	}
}

// A pool worker executing a sharded multi-cell RunTopology must
// complete even on a single-worker pool: the shards run on their own
// goroutines started by internal/scenario, not by submitting back into
// the pool, so
// holding a worker slot for the whole topology run cannot starve the
// shards of each other (the nested-submission deadlock ForEach's
// contract warns about). Guards the fan-out layering of the sharded
// engine; run under -race in CI.
func TestForEachShardedTopologyNoStarvation(t *testing.T) {
	p := New(1) // one slot: any nested submission would deadlock
	done := make(chan string, 1)
	go func() {
		var d string
		p.ForEach(context.Background(), 1, func(int) {
			top := scenario.NewMultiCellTopology(4, 2)
			top.Duration = 500 * time.Millisecond
			d = scenario.RunTopology(top).Digest()
		})
		done <- d
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
