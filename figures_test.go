package athena

import (
	"strings"
	"testing"
	"time"

	"athena/internal/stats"
)

func TestOptionsDefaults(t *testing.T) {
	var o Options
	if o.SeedOrDefault() != 1 {
		t.Fatalf("default seed = %d", o.SeedOrDefault())
	}
	if o.Scaled(time.Minute) != time.Minute {
		t.Fatalf("zero scale should be identity: %v", o.Scaled(time.Minute))
	}
	o = Options{Seed: 7, Scale: 0.5}
	if o.SeedOrDefault() != 7 || o.Scaled(time.Minute) != 30*time.Second {
		t.Fatalf("options not applied: %d %v", o.SeedOrDefault(), o.Scaled(time.Minute))
	}
}

func TestFigureDataString(t *testing.T) {
	fig := NewFigure("FX", "a title")
	fig.Scalars["alpha"] = 1
	fig.Add("line", []stats.Point{{X: 1, Y: 2}})
	fig.Note("note %d", 42)
	out := fig.String()
	for _, want := range []string{"== FX: a title ==", "alpha = 1.000", "# line (1 points)", "# note 42"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

func TestMSHelper(t *testing.T) {
	if ms(1500*time.Microsecond) != 1.5 {
		t.Fatalf("ms = %v", ms(1500*time.Microsecond))
	}
}

func TestRateStepStddev(t *testing.T) {
	if rateStepStddev([]float64{100}) != 0 {
		t.Fatal("single sample should be 0")
	}
	// Constant relative steps → zero variance.
	if got := rateStepStddev([]float64{100, 110, 121}); got > 1e-9 {
		t.Fatalf("constant growth stddev = %v", got)
	}
	if rateStepStddev([]float64{100, 150, 100, 150}) <= 0 {
		t.Fatal("oscillation should have positive stddev")
	}
}

func TestTracePoints(t *testing.T) {
	pts := tracePoints([]float64{5, 6})
	if len(pts) != 2 || pts[1].X != 1 || pts[1].Y != 6 {
		t.Fatalf("tracePoints = %v", pts)
	}
}
