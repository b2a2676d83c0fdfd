package stats

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// Series is a time series of (timestamp, value) samples. Timestamps are
// virtual-time offsets from the start of the simulation.
type Series struct {
	Name string
	T    []time.Duration
	V    []float64
}

// NewSeries creates an empty named series.
func NewSeries(name string) *Series { return &Series{Name: name} }

// Add appends a sample. Samples are expected in nondecreasing time order;
// Add keeps the invariant by inserting in order if violated.
func (s *Series) Add(t time.Duration, v float64) {
	if n := len(s.T); n == 0 || t >= s.T[n-1] {
		s.T = append(s.T, t)
		s.V = append(s.V, v)
		return
	}
	i := sort.Search(len(s.T), func(i int) bool { return s.T[i] > t })
	s.T = append(s.T, 0)
	s.V = append(s.V, 0)
	copy(s.T[i+1:], s.T[i:])
	copy(s.V[i+1:], s.V[i:])
	s.T[i] = t
	s.V[i] = v
}

// Len reports the number of samples.
func (s *Series) Len() int { return len(s.T) }

// Values returns the raw sample values (not a copy).
func (s *Series) Values() []float64 { return s.V }

// Window returns the values with timestamps in [from, to).
func (s *Series) Window(from, to time.Duration) []float64 {
	lo := sort.Search(len(s.T), func(i int) bool { return s.T[i] >= from })
	hi := sort.Search(len(s.T), func(i int) bool { return s.T[i] >= to })
	return s.V[lo:hi]
}

// Bin aggregates the series into fixed-width time bins using the supplied
// reducer (e.g. Mean) and returns one Point per non-empty bin, with X in
// seconds (matching the paper's time axes).
func (s *Series) Bin(width time.Duration, reduce func([]float64) float64) []Point {
	if len(s.T) == 0 || width <= 0 {
		return nil
	}
	var pts []Point
	start := time.Duration(0)
	end := s.T[len(s.T)-1] + width
	for t := start; t < end; t += width {
		vals := s.Window(t, t+width)
		if len(vals) == 0 {
			continue
		}
		pts = append(pts, Point{X: (t + width/2).Seconds(), Y: reduce(vals)})
	}
	return pts
}

// Sum reduces by summation (useful for per-bin byte counts).
func Sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// Count reduces to the number of samples in the bin.
func Count(xs []float64) float64 { return float64(len(xs)) }

// MaxOf reduces to the largest sample in the bin (0 for empty).
func MaxOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// FormatPoints renders points as "x y" rows for bench output.
func FormatPoints(label string, pts []Point) string {
	var b strings.Builder
	fmt.Fprintf(&b, "# %s (%d points)\n", label, len(pts))
	for _, p := range pts {
		fmt.Fprintf(&b, "%.3f %.3f\n", p.X, p.Y)
	}
	return b.String()
}

// Downsample returns at most n points of pts, evenly spaced, always
// keeping the first and last. It is used to keep bench output readable.
func Downsample(pts []Point, n int) []Point {
	if n <= 0 || len(pts) <= n {
		return pts
	}
	out := make([]Point, 0, n)
	step := float64(len(pts)-1) / float64(n-1)
	for i := 0; i < n; i++ {
		// float64() keeps arm64 from fusing the product with the add.
		out = append(out, pts[int(float64(float64(i)*step)+0.5)])
	}
	return out
}
