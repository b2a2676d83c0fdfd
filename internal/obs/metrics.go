// Package obs is the repository's dependency-free observability layer:
// a metrics registry of atomic counters, gauges and fixed-bucket
// histograms, and a span tracer that records named, parent-linked time
// ranges and exports them as a JSON snapshot or Chrome trace-event JSON
// (loadable in Perfetto / chrome://tracing).
//
// The design contract, enforced by tests, is that observability can
// never perturb what it observes:
//
//   - The record path (Counter.Add, Gauge.Set/Max, Histogram.Observe)
//     is strictly allocation-free, enabled or not — metrics are plain
//     atomics and histograms use fixed power-of-two buckets, so there
//     is no map lookup, boxing, or label formatting on the hot path.
//   - When collection is disabled (the default), every record call is a
//     no-op behind a single atomic flag load, preserving the 0 allocs/op
//     guarantees of the sim event loop and the live correlator.
//   - Metrics never touch simulation RNG streams or event ordering, so
//     experiment digests are byte-identical with instrumentation on or
//     off (pinned by a digest-equality test over the whole registry).
//
// Instrumented packages declare their metrics as package-level variables
// via NewCounter/NewGauge/NewHistogram; the registry is only a name →
// metric directory used at export time, never consulted while recording.
package obs

import (
	"encoding/json"
	"io"
	"math/bits"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// enabled gates every record path in the package. Off by default: a
// process that never calls Enable pays one atomic load per record call
// and nothing else.
var enabled atomic.Bool

// Enable turns metric collection on. Call it once at startup, before
// the workload: toggling mid-run is safe for counters but can skew
// paired gauge updates (e.g. in-flight counts).
func Enable() { enabled.Store(true) }

// Disable turns metric collection off.
func Disable() { enabled.Store(false) }

// Enabled reports whether metrics are being collected.
func Enabled() bool { return enabled.Load() }

// Counter is a monotonically increasing atomic counter. The zero value
// is ready to use; registration (NewCounter) is only needed for the
// metric to appear in snapshots.
type Counter struct{ v atomic.Int64 }

// Inc adds one when collection is enabled. Nil-safe, so structs can
// carry optional per-instance counters without guarding every call.
func (c *Counter) Inc() {
	if c != nil && enabled.Load() {
		c.v.Add(1)
	}
}

// Add adds n when collection is enabled. Nil-safe.
func (c *Counter) Add(n int64) {
	if c != nil && enabled.Load() {
		c.v.Add(n)
	}
}

// Value reads the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Reset zeroes the counter (tests and between-sweep resets).
func (c *Counter) Reset() { c.v.Store(0) }

// Gauge is an atomic instantaneous value. The zero value is ready.
type Gauge struct{ v atomic.Int64 }

// Set stores n when collection is enabled.
func (g *Gauge) Set(n int64) {
	if enabled.Load() {
		g.v.Store(n)
	}
}

// Add moves the gauge by n (may be negative) when collection is enabled.
func (g *Gauge) Add(n int64) {
	if enabled.Load() {
		g.v.Add(n)
	}
}

// Max raises the gauge to n if n exceeds the current value — a
// high-watermark record, e.g. the deepest event heap seen.
func (g *Gauge) Max(n int64) {
	if !enabled.Load() {
		return
	}
	for {
		cur := g.v.Load()
		if n <= cur || g.v.CompareAndSwap(cur, n) {
			return
		}
	}
}

// Value reads the gauge.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Reset zeroes the gauge.
func (g *Gauge) Reset() { g.v.Store(0) }

// histBuckets is the fixed bucket count of every histogram: bucket i
// holds values v with bits.Len64(v) == i, i.e. upper bound 2^i - 1.
// For nanosecond durations the range spans sub-ns to ~18 minutes
// (2^40 ns) with everything larger clamped into the last bucket.
const histBuckets = 41

// Histogram is a fixed-bucket power-of-two histogram. Observe costs one
// bits.Len64 plus three atomic adds and never allocates; bucket
// boundaries are fixed at construction (compile) time, which is what
// keeps the record path allocation- and lock-free.
type Histogram struct {
	buckets [histBuckets]atomic.Int64
	count   atomic.Int64
	sum     atomic.Int64
}

// bucketOf maps a value to its bucket index.
func bucketOf(v int64) int {
	if v <= 0 {
		return 0
	}
	b := bits.Len64(uint64(v))
	if b >= histBuckets {
		b = histBuckets - 1
	}
	return b
}

// Observe records one value when collection is enabled.
func (h *Histogram) Observe(v int64) {
	if enabled.Load() {
		h.Record(v)
	}
}

// Record records one value whether or not collection is enabled, for a
// histogram the program reads back to decide something: behaviour must
// not follow the metrics switch.
func (h *Histogram) Record(v int64) {
	h.buckets[bucketOf(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// ObserveDuration records a duration in nanoseconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(int64(d)) }

// Count reports the number of recorded observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Reset zeroes the histogram.
func (h *Histogram) Reset() {
	for i := range h.buckets {
		h.buckets[i].Store(0)
	}
	h.count.Store(0)
	h.sum.Store(0)
}

// HistBucket is one non-empty bucket of a histogram snapshot: Le is the
// inclusive upper bound, N the observation count.
type HistBucket struct {
	Le int64 `json:"le"`
	N  int64 `json:"n"`
}

// HistSnapshot is a histogram's exported state.
//
// Quantile estimator bias: P50/P90/P99 are reported as the inclusive
// upper bound (2^i - 1) of the bucket containing the rank-⌊q·count⌋
// observation (0-based rank). The estimate therefore never understates
// the true quantile but may overstate it by up to 2× (the bucket width),
// with equality exactly when the observations in the selected bucket sit
// at its bound. The estimate is monotone in q and exact for count == 0
// (reported as 0). This is adequate for spotting order-of-magnitude
// shifts in queue waits and run durations, not for SLO arithmetic —
// pinned by an exact-count unit test over known observations.
type HistSnapshot struct {
	Count   int64        `json:"count"`
	Sum     int64        `json:"sum"`
	P50     int64        `json:"p50"`
	P90     int64        `json:"p90"`
	P99     int64        `json:"p99"`
	Buckets []HistBucket `json:"buckets,omitempty"`
}

// Snapshot exports the histogram's current state. Count is the sum of
// the buckets it read, not the count word: a Record running concurrently
// may have reached one and not the other, and the exposition's le="+Inf"
// bucket must still equal _count and top the cumulative series.
func (h *Histogram) Snapshot() HistSnapshot {
	s := HistSnapshot{Sum: h.sum.Load()}
	var counts [histBuckets]int64
	for i := range h.buckets {
		if n := h.buckets[i].Load(); n > 0 {
			counts[i] = n
			s.Count += n
			s.Buckets = append(s.Buckets, HistBucket{Le: bucketBound(i), N: n})
		}
	}
	s.P50 = quantile(counts[:], s.Count, 0.50)
	s.P90 = quantile(counts[:], s.Count, 0.90)
	s.P99 = quantile(counts[:], s.Count, 0.99)
	return s
}

// Quantile estimates quantile q (in [0,1]) directly from the live
// buckets without building a snapshot: it walks the fixed bucket array
// on the stack and allocates nothing, so callers may evaluate it on the
// feed path (e.g. per-batch anomaly threshold checks). It carries the
// same upper-bound bias documented on HistSnapshot. Concurrent Observe
// calls may be partially visible; the result is a racy-consistent
// estimate, which is all a threshold check needs.
func (h *Histogram) Quantile(q float64) int64 {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	rank := int64(q * float64(total))
	if rank >= total {
		rank = total - 1
	}
	var seen int64
	for i := range h.buckets {
		seen += h.buckets[i].Load()
		if seen > rank {
			return bucketBound(i)
		}
	}
	return bucketBound(histBuckets - 1)
}

// bucketBound is bucket i's inclusive upper bound.
func bucketBound(i int) int64 {
	if i >= 63 {
		return int64(^uint64(0) >> 1)
	}
	return int64(1)<<i - 1
}

// quantile returns the upper bound of the bucket containing the q-th
// observation.
func quantile(counts []int64, total int64, q float64) int64 {
	if total == 0 {
		return 0
	}
	rank := int64(q * float64(total))
	if rank >= total {
		rank = total - 1
	}
	var seen int64
	for i, n := range counts {
		seen += n
		if seen > rank {
			return bucketBound(i)
		}
	}
	return bucketBound(len(counts) - 1)
}

// registry is the process-wide name → metric directory. It is consulted
// only at registration and export time, never on the record path.
var registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}

// NewCounter returns the registered counter of that name, creating it on
// first use. Re-registration returns the existing counter, so metrics
// survive repeated setup paths (e.g. one cell per scenario run).
func NewCounter(name string) *Counter {
	registry.mu.Lock()
	defer registry.mu.Unlock()
	if registry.counters == nil {
		registry.counters = make(map[string]*Counter)
	}
	if c, ok := registry.counters[name]; ok {
		return c
	}
	c := new(Counter)
	registry.counters[name] = c
	return c
}

// RegisterCounter registers an existing counter under name (first
// registration wins) and returns the canonical instance.
func RegisterCounter(name string, c *Counter) *Counter {
	registry.mu.Lock()
	defer registry.mu.Unlock()
	if registry.counters == nil {
		registry.counters = make(map[string]*Counter)
	}
	if prev, ok := registry.counters[name]; ok {
		return prev
	}
	registry.counters[name] = c
	return c
}

// NewGauge returns the registered gauge of that name, creating it on
// first use.
func NewGauge(name string) *Gauge {
	registry.mu.Lock()
	defer registry.mu.Unlock()
	if registry.gauges == nil {
		registry.gauges = make(map[string]*Gauge)
	}
	if g, ok := registry.gauges[name]; ok {
		return g
	}
	g := new(Gauge)
	registry.gauges[name] = g
	return g
}

// RegisterGauge registers an existing gauge under name (first wins).
func RegisterGauge(name string, g *Gauge) *Gauge {
	registry.mu.Lock()
	defer registry.mu.Unlock()
	if registry.gauges == nil {
		registry.gauges = make(map[string]*Gauge)
	}
	if prev, ok := registry.gauges[name]; ok {
		return prev
	}
	registry.gauges[name] = g
	return g
}

// NewHistogram returns the registered histogram of that name, creating
// it on first use.
func NewHistogram(name string) *Histogram {
	registry.mu.Lock()
	defer registry.mu.Unlock()
	if registry.histograms == nil {
		registry.histograms = make(map[string]*Histogram)
	}
	if h, ok := registry.histograms[name]; ok {
		return h
	}
	h := new(Histogram)
	registry.histograms[name] = h
	return h
}

// RegisterHistogram registers an existing histogram under name (first
// wins).
func RegisterHistogram(name string, h *Histogram) *Histogram {
	registry.mu.Lock()
	defer registry.mu.Unlock()
	if registry.histograms == nil {
		registry.histograms = make(map[string]*Histogram)
	}
	if prev, ok := registry.histograms[name]; ok {
		return prev
	}
	registry.histograms[name] = h
	return h
}

// Snapshot is a point-in-time export of every registered metric.
// encoding/json sorts map keys, so the serialized form is deterministic
// for a given set of values.
type Snapshot struct {
	Counters   map[string]int64        `json:"counters,omitempty"`
	Gauges     map[string]int64        `json:"gauges,omitempty"`
	Histograms map[string]HistSnapshot `json:"histograms,omitempty"`
}

// TakeSnapshot reads every registered metric.
func TakeSnapshot() Snapshot {
	registry.mu.Lock()
	defer registry.mu.Unlock()
	return snapshotLocked()
}

// snapshotLocked reads every registered metric; registry.mu must be held.
func snapshotLocked() Snapshot {
	s := Snapshot{}
	if len(registry.counters) > 0 {
		s.Counters = make(map[string]int64, len(registry.counters))
		for name, c := range registry.counters {
			s.Counters[name] = c.Value()
		}
	}
	if len(registry.gauges) > 0 {
		s.Gauges = make(map[string]int64, len(registry.gauges))
		for name, g := range registry.gauges {
			s.Gauges[name] = g.Value()
		}
	}
	if len(registry.histograms) > 0 {
		s.Histograms = make(map[string]HistSnapshot, len(registry.histograms))
		for name, h := range registry.histograms {
			s.Histograms[name] = h.Snapshot()
		}
	}
	return s
}

// WriteMetricsJSON emits the registry snapshot as indented JSON with a
// trailing newline.
func WriteMetricsJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(TakeSnapshot())
}

// WriteMetricsFile writes the registry snapshot to path.
func WriteMetricsFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteMetricsJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ResetAll zeroes every registered metric (tests and between-sweep
// resets); registrations themselves are kept.
func ResetAll() {
	registry.mu.Lock()
	defer registry.mu.Unlock()
	for _, c := range registry.counters {
		c.Reset()
	}
	for _, g := range registry.gauges {
		g.Reset()
	}
	for _, h := range registry.histograms {
		h.Reset()
	}
}

// UnregisterPrefix removes every metric whose name starts with prefix and
// reports how many entries were dropped. The metric instances remain
// valid — holders can keep recording into them — but they disappear from
// snapshots and /metrics. The result store's Close uses it to retire its
// instance-named metric family in one call.
func UnregisterPrefix(prefix string) int {
	registry.mu.Lock()
	defer registry.mu.Unlock()
	n := 0
	for name := range registry.counters {
		if strings.HasPrefix(name, prefix) {
			delete(registry.counters, name)
			n++
		}
	}
	for name := range registry.gauges {
		if strings.HasPrefix(name, prefix) {
			delete(registry.gauges, name)
			n++
		}
	}
	for name := range registry.histograms {
		if strings.HasPrefix(name, prefix) {
			delete(registry.histograms, name)
			n++
		}
	}
	return n
}
