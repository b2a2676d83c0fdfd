package obs

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

// withObs runs f with collection enabled, restoring the disabled default
// and zeroed registry afterwards so tests cannot leak state.
func withObs(t *testing.T, f func()) {
	t.Helper()
	Enable()
	defer func() {
		Disable()
		ResetAll()
	}()
	f()
}

func TestCounterGatedOnEnable(t *testing.T) {
	c := NewCounter("test.gate.counter")
	c.Inc()
	c.Add(10)
	if v := c.Value(); v != 0 {
		t.Fatalf("disabled counter recorded %d", v)
	}
	withObs(t, func() {
		c.Inc()
		c.Add(10)
		if v := c.Value(); v != 11 {
			t.Fatalf("enabled counter = %d, want 11", v)
		}
	})
	if v := c.Value(); v != 0 {
		t.Fatalf("ResetAll left counter at %d", v)
	}
}

func TestCounterNilSafe(t *testing.T) {
	var c *Counter
	withObs(t, func() {
		c.Inc() // must not panic
		c.Add(5)
	})
}

func TestGaugeSetAddMax(t *testing.T) {
	g := NewGauge("test.gauge")
	g.Set(5)
	if g.Value() != 0 {
		t.Fatal("disabled gauge recorded")
	}
	withObs(t, func() {
		g.Set(5)
		g.Add(-2)
		if g.Value() != 3 {
			t.Fatalf("gauge = %d, want 3", g.Value())
		}
		g.Max(10)
		g.Max(7) // below the watermark: no effect
		if g.Value() != 10 {
			t.Fatalf("gauge max = %d, want 10", g.Value())
		}
	})
}

func TestGaugeMaxConcurrent(t *testing.T) {
	g := NewGauge("test.gauge.concurrent")
	withObs(t, func() {
		var wg sync.WaitGroup
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < 1000; i++ {
					g.Max(int64(w*1000 + i))
				}
			}(w)
		}
		wg.Wait()
		if g.Value() != 7999 {
			t.Fatalf("concurrent max = %d, want 7999", g.Value())
		}
	})
}

func TestHistogramBucketsAndQuantiles(t *testing.T) {
	h := NewHistogram("test.hist")
	withObs(t, func() {
		// 90 small values and 10 large ones: p50/p90 land in the small
		// bucket's bound, p99 in the large one's.
		for i := 0; i < 90; i++ {
			h.Observe(100) // bucket 7, bound 127
		}
		for i := 0; i < 10; i++ {
			h.Observe(100000) // bucket 17, bound 131071
		}
		s := h.Snapshot()
		if s.Count != 100 || s.Sum != 90*100+10*100000 {
			t.Fatalf("count/sum = %d/%d", s.Count, s.Sum)
		}
		if s.P50 != 127 {
			t.Fatalf("p50 = %d, want 127", s.P50)
		}
		// The 90th observation (0-indexed rank 90) is the first large
		// value, so p90 and p99 land in the large bucket's bound.
		if s.P90 != 131071 || s.P99 != 131071 {
			t.Fatalf("p90/p99 = %d/%d, want 131071/131071", s.P90, s.P99)
		}
		if len(s.Buckets) != 2 {
			t.Fatalf("buckets = %+v, want 2 non-empty", s.Buckets)
		}
	})
}

func TestHistogramEdgeValues(t *testing.T) {
	h := NewHistogram("test.hist.edges")
	withObs(t, func() {
		h.Observe(-5) // clamps into bucket 0
		h.Observe(0)
		h.Observe(1 << 62) // beyond the last bucket bound: clamps to last
		if h.Count() != 3 {
			t.Fatalf("count = %d", h.Count())
		}
		s := h.Snapshot()
		if s.Buckets[0].Le != 0 || s.Buckets[0].N != 2 {
			t.Fatalf("zero bucket = %+v", s.Buckets[0])
		}
		last := s.Buckets[len(s.Buckets)-1]
		if last.N != 1 {
			t.Fatalf("overflow bucket = %+v", last)
		}
	})
}

func TestObserveDuration(t *testing.T) {
	h := NewHistogram("test.hist.duration")
	withObs(t, func() {
		h.ObserveDuration(3 * time.Millisecond)
		if h.Count() != 1 {
			t.Fatal("duration not observed")
		}
	})
}

func TestRegistryDedupAndSnapshot(t *testing.T) {
	// The registry is process-wide; a repeat run (-count) must find the
	// names fresh again.
	t.Cleanup(func() { UnregisterPrefix("test.registry.") })
	a := NewCounter("test.registry.dup")
	b := NewCounter("test.registry.dup")
	if a != b {
		t.Fatal("NewCounter returned distinct instances for one name")
	}
	own := new(Counter)
	if got := RegisterCounter("test.registry.dup", own); got != a {
		t.Fatal("RegisterCounter did not keep the first registration")
	}
	if got := RegisterCounter("test.registry.own", own); got != own {
		t.Fatal("RegisterCounter rejected a fresh name")
	}

	withObs(t, func() {
		a.Inc()
		NewGauge("test.registry.g").Set(4)
		NewHistogram("test.registry.h").Observe(9)
		s := TakeSnapshot()
		if s.Counters["test.registry.dup"] != 1 {
			t.Fatalf("snapshot counters = %v", s.Counters)
		}
		if s.Gauges["test.registry.g"] != 4 {
			t.Fatalf("snapshot gauges = %v", s.Gauges)
		}
		if s.Histograms["test.registry.h"].Count != 1 {
			t.Fatalf("snapshot histograms = %v", s.Histograms)
		}
	})
}

func TestWriteMetricsJSON(t *testing.T) {
	withObs(t, func() {
		NewCounter("test.json.counter").Inc()
		var b strings.Builder
		if err := WriteMetricsJSON(&b); err != nil {
			t.Fatal(err)
		}
		var s Snapshot
		if err := json.Unmarshal([]byte(b.String()), &s); err != nil {
			t.Fatalf("snapshot JSON invalid: %v\n%s", err, b.String())
		}
		if s.Counters["test.json.counter"] != 1 {
			t.Fatalf("decoded counters = %v", s.Counters)
		}
		if !strings.HasSuffix(b.String(), "\n") {
			t.Fatal("snapshot missing trailing newline")
		}
	})
}

// TestHistogramQuantileExactCounts pins the quantile estimator with
// exact bucket arithmetic: known observation counts land in known
// power-of-two buckets, so P50/P90/P99 must equal those buckets' upper
// bounds exactly — and the live Quantile method must agree with the
// snapshot path for every rank, including the bias cases documented in
// the HistSnapshot godoc (the estimate is the bucket's 2^i - 1 bound,
// never the raw observation).
func TestHistogramQuantileExactCounts(t *testing.T) {
	h := NewHistogram("test.hist.exact")
	withObs(t, func() {
		// 50×3 (bucket le 3), 30×10 (le 15), 15×100 (le 127), 5×5000 (le 8191).
		obs := []struct {
			v int64
			n int
		}{{3, 50}, {10, 30}, {100, 15}, {5000, 5}}
		for _, o := range obs {
			for i := 0; i < o.n; i++ {
				h.Observe(o.v)
			}
		}
		s := h.Snapshot()
		if s.Count != 100 {
			t.Fatalf("count %d", s.Count)
		}
		// Rank arithmetic (0-based rank ⌊q·100⌋): rank 50 is the 51st
		// observation → first of the 10s → le 15. Rank 90 is the 11th of
		// the 100s+5000s block → le 127. Rank 99 → le 8191.
		if s.P50 != 15 || s.P90 != 127 || s.P99 != 8191 {
			t.Fatalf("P50/P90/P99 = %d/%d/%d, want 15/127/8191", s.P50, s.P90, s.P99)
		}
		for _, q := range []float64{0, 0.25, 0.5, 0.49, 0.51, 0.9, 0.99, 1.0} {
			want := quantile(snapshotCounts(s), s.Count, q)
			if got := h.Quantile(q); got != want {
				t.Fatalf("Quantile(%v) = %d, snapshot path says %d", q, got, want)
			}
		}
		// Upper-bound bias: every observation of 3 reports as 3 (bucket
		// bound), but an observation of 2 in the same bucket also reports 3.
		h2 := NewHistogram("test.hist.exact.bias")
		h2.Observe(2)
		if got := h2.Quantile(0.5); got != 3 {
			t.Fatalf("bias case: Quantile(0.5) of {2} = %d, want bucket bound 3", got)
		}
		// Empty histogram: all quantiles are 0.
		if NewHistogram("test.hist.exact.empty").Quantile(0.99) != 0 {
			t.Fatal("empty histogram quantile != 0")
		}
	})
}

// snapshotCounts re-derives the dense bucket array from a snapshot's
// sparse non-empty buckets.
func snapshotCounts(s HistSnapshot) []int64 {
	counts := make([]int64, histBuckets)
	for _, b := range s.Buckets {
		for i := 0; i < histBuckets; i++ {
			if bucketBound(i) == b.Le {
				counts[i] = b.N
				break
			}
		}
	}
	return counts
}

// The live Quantile path must stay allocation-free: it runs on the
// session feed path (per-batch anomaly checks).
func TestHistogramQuantileNoAllocs(t *testing.T) {
	h := NewHistogram("test.hist.quantile.alloc")
	withObs(t, func() {
		for i := int64(1); i < 1000; i++ {
			h.Observe(i)
		}
		if n := testing.AllocsPerRun(1000, func() { _ = h.Quantile(0.99) }); n != 0 {
			t.Fatalf("Quantile allocates %.1f/op", n)
		}
	})
}

// TestRecordPathNoAllocs pins the package contract: the record path
// never allocates, with collection disabled or enabled.
func TestRecordPathNoAllocs(t *testing.T) {
	c := NewCounter("test.alloc.counter")
	g := NewGauge("test.alloc.gauge")
	h := NewHistogram("test.alloc.hist")
	record := func() {
		c.Inc()
		c.Add(3)
		g.Set(7)
		g.Add(1)
		g.Max(9)
		h.Observe(1234)
	}

	Disable()
	if n := testing.AllocsPerRun(1000, record); n != 0 {
		t.Fatalf("disabled record path allocates %.1f/op", n)
	}
	withObs(t, func() {
		if n := testing.AllocsPerRun(1000, record); n != 0 {
			t.Fatalf("enabled record path allocates %.1f/op", n)
		}
	})
}
