package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil)
	if s.Count != 0 {
		t.Fatalf("Count = %d, want 0", s.Count)
	}
}

func TestSummarizeBasic(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5})
	if s.Count != 5 || s.Min != 1 || s.Max != 5 {
		t.Fatalf("bad count/min/max: %+v", s)
	}
	if s.Mean != 3 {
		t.Errorf("Mean = %v, want 3", s.Mean)
	}
	if s.P50 != 3 {
		t.Errorf("P50 = %v, want 3", s.P50)
	}
	if math.Abs(s.Stddev-math.Sqrt(2)) > 1e-9 {
		t.Errorf("Stddev = %v, want sqrt(2)", s.Stddev)
	}
}

func TestSummarizeDoesNotMutateInput(t *testing.T) {
	xs := []float64{3, 1, 2}
	Summarize(xs)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatalf("input mutated: %v", xs)
	}
}

func TestQuantileInterpolation(t *testing.T) {
	xs := []float64{0, 10}
	if got := Quantile(xs, 0.5); got != 5 {
		t.Errorf("median = %v, want 5", got)
	}
	if got := Quantile(xs, 0); got != 0 {
		t.Errorf("q0 = %v, want 0", got)
	}
	if got := Quantile(xs, 1); got != 10 {
		t.Errorf("q1 = %v, want 10", got)
	}
}

func TestQuantileEmpty(t *testing.T) {
	if got := Quantile(nil, 0.5); !math.IsNaN(got) {
		t.Fatalf("want NaN, got %v", got)
	}
}

func TestMean(t *testing.T) {
	if got := Mean([]float64{2, 4}); got != 3 {
		t.Fatalf("Mean = %v, want 3", got)
	}
	if !math.IsNaN(Mean(nil)) {
		t.Fatal("Mean(nil) should be NaN")
	}
}

func TestCDFAt(t *testing.T) {
	c := NewCDF([]float64{1, 2, 3, 4})
	cases := []struct {
		x    float64
		want float64
	}{
		{0.5, 0}, {1, 0.25}, {2.5, 0.5}, {4, 1}, {100, 1},
	}
	for _, cse := range cases {
		if got := c.At(cse.x); got != cse.want {
			t.Errorf("At(%v) = %v, want %v", cse.x, got, cse.want)
		}
	}
}

// Property: CDF is monotone nondecreasing and bounded in [0,1].
func TestCDFMonotoneProperty(t *testing.T) {
	f := func(raw []float64, probes []float64) bool {
		if len(raw) == 0 {
			return true
		}
		for i, x := range raw {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				raw[i] = 0
			}
		}
		c := NewCDF(raw)
		sort.Float64s(probes)
		prev := -1.0
		for _, p := range probes {
			if math.IsNaN(p) {
				continue
			}
			y := c.At(p)
			if y < prev || y < 0 || y > 1 {
				return false
			}
			prev = y
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: Quantile and At are approximately inverse.
func TestCDFQuantileAtInverse(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	xs := make([]float64, 500)
	for i := range xs {
		xs[i] = rng.NormFloat64() * 10
	}
	c := NewCDF(xs)
	for _, q := range []float64{0.1, 0.3, 0.5, 0.7, 0.9} {
		v := c.Quantile(q)
		got := c.At(v)
		if math.Abs(got-q) > 0.01 {
			t.Errorf("At(Quantile(%v)) = %v", q, got)
		}
	}
}

func TestCDFPoints(t *testing.T) {
	c := NewCDF([]float64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	pts := c.Points(5)
	if len(pts) != 5 {
		t.Fatalf("got %d points, want 5", len(pts))
	}
	if pts[0].X != 0 || pts[len(pts)-1].X != 9 {
		t.Errorf("endpoints wrong: %+v", pts)
	}
	if pts[len(pts)-1].Y != 1 {
		t.Errorf("final Y = %v, want 1", pts[len(pts)-1].Y)
	}
}

func TestRunningMatchesSummarize(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	xs := make([]float64, 1000)
	var r Running
	for i := range xs {
		xs[i] = rng.Float64()*100 - 50
		r.Add(xs[i])
	}
	s := Summarize(xs)
	if math.Abs(r.Mean()-s.Mean) > 1e-9 {
		t.Errorf("mean mismatch: %v vs %v", r.Mean(), s.Mean)
	}
	if math.Abs(r.Stddev()-s.Stddev) > 1e-6 {
		t.Errorf("stddev mismatch: %v vs %v", r.Stddev(), s.Stddev)
	}
	if r.Min() != s.Min || r.Max() != s.Max {
		t.Errorf("min/max mismatch")
	}
	if r.Count() != 1000 {
		t.Errorf("count = %d", r.Count())
	}
}

func TestRunningEmpty(t *testing.T) {
	var r Running
	if !math.IsNaN(r.Mean()) || !math.IsNaN(r.Var()) || !math.IsNaN(r.Min()) || !math.IsNaN(r.Max()) {
		t.Fatal("empty Running should report NaN")
	}
}

func TestSeriesAddOrdered(t *testing.T) {
	s := NewSeries("x")
	s.Add(1*time.Second, 1)
	s.Add(2*time.Second, 2)
	s.Add(500*time.Millisecond, 0.5) // out of order
	if s.Len() != 3 {
		t.Fatalf("Len = %d", s.Len())
	}
	for i := 1; i < s.Len(); i++ {
		if s.T[i] < s.T[i-1] {
			t.Fatalf("not sorted: %v", s.T)
		}
	}
	if s.V[0] != 0.5 {
		t.Errorf("insert misplaced values: %v", s.V)
	}
}

func TestSeriesWindow(t *testing.T) {
	s := NewSeries("x")
	for i := 0; i < 10; i++ {
		s.Add(time.Duration(i)*time.Second, float64(i))
	}
	w := s.Window(2*time.Second, 5*time.Second)
	if len(w) != 3 || w[0] != 2 || w[2] != 4 {
		t.Fatalf("Window = %v", w)
	}
}

func TestSeriesBin(t *testing.T) {
	s := NewSeries("x")
	s.Add(100*time.Millisecond, 10)
	s.Add(200*time.Millisecond, 20)
	s.Add(1100*time.Millisecond, 30)
	pts := s.Bin(time.Second, Mean)
	if len(pts) != 2 {
		t.Fatalf("got %d bins, want 2: %+v", len(pts), pts)
	}
	if pts[0].Y != 15 || pts[1].Y != 30 {
		t.Errorf("bin values: %+v", pts)
	}
}

func TestReducers(t *testing.T) {
	xs := []float64{1, 2, 3}
	if Sum(xs) != 6 {
		t.Error("Sum")
	}
	if Count(xs) != 3 {
		t.Error("Count")
	}
	if MaxOf(xs) != 3 {
		t.Error("MaxOf")
	}
	if MaxOf(nil) != 0 {
		t.Error("MaxOf(nil)")
	}
}

func TestDownsample(t *testing.T) {
	pts := make([]Point, 100)
	for i := range pts {
		pts[i] = Point{X: float64(i)}
	}
	out := Downsample(pts, 10)
	if len(out) != 10 {
		t.Fatalf("len = %d", len(out))
	}
	if out[0].X != 0 || out[9].X != 99 {
		t.Errorf("endpoints: %v ... %v", out[0], out[9])
	}
	if got := Downsample(pts, 200); len(got) != 100 {
		t.Errorf("no-op expected, got %d", len(got))
	}
}

func TestASCIICDF(t *testing.T) {
	out := ASCIICDF("delay", []float64{1, 2, 3})
	if out == "" || out == "delay: (no samples)\n" {
		t.Fatalf("unexpected: %q", out)
	}
	if ASCIICDF("e", nil) != "e: (no samples)\n" {
		t.Fatal("empty render")
	}
}

func TestSummarizeInPlaceMatchesSummarize(t *testing.T) {
	xs := []float64{9, 1, 7, 3, 5, 2, 8, 4, 6, 0}
	want := Summarize(xs) // copies; xs untouched
	got := SummarizeInPlace(append([]float64(nil), xs...))
	if got != want {
		t.Fatalf("SummarizeInPlace = %+v, want %+v", got, want)
	}
	if Summarize(nil) != (Summary{}) || SummarizeInPlace(nil) != (Summary{}) {
		t.Fatal("empty input should give zero Summary")
	}
}

func TestCDFSummaryMatchesSummarize(t *testing.T) {
	xs := []float64{4, 2, 9, 1, 1, 6}
	if got, want := NewCDF(xs).Summary(), Summarize(xs); got != want {
		t.Fatalf("CDF.Summary = %+v, want %+v", got, want)
	}
	if NewCDF(nil).Summary() != (Summary{}) {
		t.Fatal("empty CDF should give zero Summary")
	}
}

func TestNewCDFInPlace(t *testing.T) {
	xs := []float64{3, 1, 2}
	c := NewCDFInPlace(xs)
	if c.Quantile(0) != 1 || c.Quantile(1) != 3 {
		t.Fatalf("quantiles: %v %v", c.Quantile(0), c.Quantile(1))
	}
	// Takes ownership: backing slice is xs itself, sorted.
	if &c.Values()[0] != &xs[0] || xs[0] != 1 || xs[2] != 3 {
		t.Fatalf("expected in-place sort of the caller slice: %v", xs)
	}
}

func TestQuantileInPlace(t *testing.T) {
	xs := []float64{5, 1, 3}
	if got := QuantileInPlace(xs, 0.5); got != 3 {
		t.Fatalf("median = %v", got)
	}
	if !math.IsNaN(QuantileInPlace(nil, 0.5)) {
		t.Fatal("empty input should be NaN")
	}
}
