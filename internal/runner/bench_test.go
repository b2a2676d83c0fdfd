package runner

import (
	"context"
	"testing"
	"time"

	"athena/internal/scenario"
)

// benchConfigs builds n distinct short scenario configs.
func benchConfigs(n int) []scenario.Config {
	cfgs := make([]scenario.Config, n)
	for i := range cfgs {
		cfgs[i] = scenario.Defaults()
		cfgs[i].Seed = int64(i + 1)
		cfgs[i].Duration = 2 * time.Second
	}
	return cfgs
}

// BenchmarkRunAllSerial is the single-worker reference for the parallel
// speedup trajectory.
func BenchmarkRunAllSerial(b *testing.B) {
	cfgs := benchConfigs(8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := New(1) // fresh pool: measure execution, not the cache
		p.RunAll(context.Background(), cfgs)
	}
}

// BenchmarkRunAllParallel fans the same batch across GOMAXPROCS workers.
func BenchmarkRunAllParallel(b *testing.B) {
	cfgs := benchConfigs(8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := New(0)
		p.RunAll(context.Background(), cfgs)
	}
}

// BenchmarkRunAllMemoized measures recall of an already-cached batch —
// the cross-driver sharing fast path.
func BenchmarkRunAllMemoized(b *testing.B) {
	cfgs := benchConfigs(8)
	p := New(0)
	p.RunAll(context.Background(), cfgs)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.RunAll(context.Background(), cfgs)
	}
}
