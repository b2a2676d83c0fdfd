// Package stats provides the descriptive statistics Athena's analysis and
// benchmark harness rely on: empirical CDFs, percentiles, histograms,
// running (streaming) summaries, and time-binned series.
//
// Everything here operates on float64 samples; callers convert durations to
// milliseconds (or whatever axis unit the figure uses) at the boundary.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Summary holds order statistics for a sample set.
type Summary struct {
	Count         int
	Min, Max      float64
	Mean, Stddev  float64
	P10, P25, P50 float64
	P75, P90, P95 float64
	P99           float64
}

// Summarize computes a Summary of xs. It returns a zero Summary for an
// empty input. The input is copied; use SummarizeInPlace when the caller
// owns xs and can spare the copy.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := make([]float64, len(xs))
	copy(s, xs)
	return SummarizeInPlace(s)
}

// SummarizeInPlace computes a Summary of xs, sorting xs in place instead
// of copying it — the zero-copy path for callers that own their sample
// slice (extractors like ULDelaysMS return fresh slices).
func SummarizeInPlace(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	sort.Float64s(xs)
	return summarizeSorted(xs)
}

// summarizeSorted computes every order statistic from one sorted pass —
// the shared single-sort path under Summarize and CDF.Summary.
func summarizeSorted(s []float64) Summary {
	if len(s) == 0 {
		return Summary{}
	}
	var sum, sumsq float64
	for _, x := range s {
		sum += x
		sumsq += x * x
	}
	n := float64(len(s))
	mean := sum / n
	variance := sumsq/n - mean*mean
	if variance < 0 {
		variance = 0
	}
	return Summary{
		Count:  len(s),
		Min:    s[0],
		Max:    s[len(s)-1],
		Mean:   mean,
		Stddev: math.Sqrt(variance),
		P10:    quantileSorted(s, 0.10),
		P25:    quantileSorted(s, 0.25),
		P50:    quantileSorted(s, 0.50),
		P75:    quantileSorted(s, 0.75),
		P90:    quantileSorted(s, 0.90),
		P95:    quantileSorted(s, 0.95),
		P99:    quantileSorted(s, 0.99),
	}
}

// String renders the summary on one line, suitable for bench output.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d min=%.2f p50=%.2f mean=%.2f p95=%.2f p99=%.2f max=%.2f",
		s.Count, s.Min, s.P50, s.Mean, s.P95, s.P99, s.Max)
}

// Quantile returns the q-quantile (0 <= q <= 1) of xs using linear
// interpolation between order statistics. It returns NaN for empty input.
// The input is copied and sorted on every call: callers needing several
// quantiles of one sample set should build a CDF (or use QuantileInPlace
// for a single quantile of an owned slice) so the sort happens once.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := make([]float64, len(xs))
	copy(s, xs)
	sort.Float64s(s)
	return quantileSorted(s, q)
}

// QuantileInPlace is Quantile without the defensive copy: it sorts xs in
// place. For callers that own their sample slice.
func QuantileInPlace(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	return quantileSorted(xs, q)
}

func quantileSorted(s []float64, q float64) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	if q <= 0 {
		return s[0]
	}
	if q >= 1 {
		return s[len(s)-1]
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// Mean returns the arithmetic mean of xs, or NaN for empty input.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// CDF is an empirical cumulative distribution function over a sample set.
type CDF struct {
	sorted []float64
}

// NewCDF builds an empirical CDF from xs. The input is copied.
func NewCDF(xs []float64) *CDF {
	s := make([]float64, len(xs))
	copy(s, xs)
	sort.Float64s(s)
	return &CDF{sorted: s}
}

// NewCDFInPlace builds an empirical CDF that takes ownership of xs,
// sorting it in place without copying. The caller must not use xs
// afterwards. This is the single-sort path figure drivers use to extract
// curve points, quantiles and summaries from one sample set.
func NewCDFInPlace(xs []float64) *CDF {
	sort.Float64s(xs)
	return &CDF{sorted: xs}
}

// Len reports the number of underlying samples.
func (c *CDF) Len() int { return len(c.sorted) }

// Values exposes the sorted backing samples. The slice is shared with the
// CDF: treat it as read-only.
func (c *CDF) Values() []float64 { return c.sorted }

// Summary computes the full order-statistics summary from the
// already-sorted samples — no additional sort or copy.
func (c *CDF) Summary() Summary { return summarizeSorted(c.sorted) }

// At reports P(X <= x): the fraction of samples <= x.
func (c *CDF) At(x float64) float64 {
	if len(c.sorted) == 0 {
		return math.NaN()
	}
	// First index with value > x.
	i := sort.Search(len(c.sorted), func(i int) bool { return c.sorted[i] > x })
	return float64(i) / float64(len(c.sorted))
}

// Quantile returns the q-quantile of the sample set.
func (c *CDF) Quantile(q float64) float64 { return quantileSorted(c.sorted, q) }

// Points returns n evenly spaced (value, cumulative-probability) pairs
// spanning the sample range, suitable for plotting the CDF curve.
func (c *CDF) Points(n int) []Point {
	if len(c.sorted) == 0 || n <= 0 {
		return nil
	}
	lo, hi := c.sorted[0], c.sorted[len(c.sorted)-1]
	pts := make([]Point, 0, n)
	if n == 1 || hi == lo {
		return append(pts, Point{X: hi, Y: 1})
	}
	step := (hi - lo) / float64(n-1)
	for i := 0; i < n; i++ {
		x := lo + float64(i)*step
		pts = append(pts, Point{X: x, Y: c.At(x)})
	}
	return pts
}

// Point is a single (x, y) coordinate of a plotted series.
type Point struct {
	X, Y float64
}

// Running accumulates a streaming mean/variance/min/max without storing
// samples (Welford's algorithm). The zero value is ready to use.
type Running struct {
	n        int
	mean, m2 float64
	min, max float64
}

// Add records one sample.
func (r *Running) Add(x float64) {
	r.n++
	if r.n == 1 {
		r.min, r.max = x, x
	} else {
		if x < r.min {
			r.min = x
		}
		if x > r.max {
			r.max = x
		}
	}
	delta := x - r.mean
	r.mean += delta / float64(r.n)
	r.m2 += delta * (x - r.mean)
}

// Count reports the number of samples seen.
func (r *Running) Count() int { return r.n }

// Mean reports the running mean (NaN if no samples).
func (r *Running) Mean() float64 {
	if r.n == 0 {
		return math.NaN()
	}
	return r.mean
}

// Var reports the population variance (NaN if no samples).
func (r *Running) Var() float64 {
	if r.n == 0 {
		return math.NaN()
	}
	return r.m2 / float64(r.n)
}

// Stddev reports the population standard deviation.
func (r *Running) Stddev() float64 { return math.Sqrt(r.Var()) }

// Min reports the smallest sample (NaN if none).
func (r *Running) Min() float64 {
	if r.n == 0 {
		return math.NaN()
	}
	return r.min
}

// Max reports the largest sample (NaN if none).
func (r *Running) Max() float64 {
	if r.n == 0 {
		return math.NaN()
	}
	return r.max
}

// ASCIICDF renders a coarse textual CDF plot (one row per decile) so bench
// output can convey curve shape without a plotting stack.
func ASCIICDF(label string, xs []float64) string {
	if len(xs) == 0 {
		return label + ": (no samples)\n"
	}
	c := NewCDF(xs)
	var b strings.Builder
	fmt.Fprintf(&b, "%s (n=%d)\n", label, len(xs))
	for _, q := range []float64{0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99} {
		fmt.Fprintf(&b, "  p%-4.0f %10.3f\n", q*100, c.Quantile(q))
	}
	return b.String()
}
