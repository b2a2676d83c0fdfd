package gcc

import "time"

// Trendline filter parameters, matching the WebRTC implementation.
const (
	trendWindow    = 20  // regression window (samples)
	trendSmoothing = 0.9 // exponential smoothing of accumulated delay
	thresholdGain  = 4.0 // gain applied before threshold comparison
	maxTrendDeltas = 60  // cap on the delta count multiplier
)

// trendline estimates the slope of the smoothed accumulated delay
// variation versus arrival time: the "filtered delay gradient" of Fig 10.
type trendline struct {
	numDeltas    int
	accumDelay   float64 // ms
	smoothedDlay float64 // ms
	firstArrival time.Duration
	haveFirst    bool

	// regression window of (arrival ms, smoothed accumulated delay ms)
	x, y []float64

	trend float64
}

// update folds one inter-group delay-variation sample in and recomputes
// the slope.
func (t *trendline) update(d time.Duration, arrival time.Duration) {
	if !t.haveFirst {
		t.firstArrival = arrival
		t.haveFirst = true
	}
	t.numDeltas++
	ms := float64(d) / float64(time.Millisecond)
	t.accumDelay += ms
	// Here and below, float64() around a product keeps arm64 from fusing
	// it with the neighbouring add, so every GOARCH rounds as amd64 does.
	t.smoothedDlay = float64(trendSmoothing*t.smoothedDlay) + float64((1-trendSmoothing)*t.accumDelay)

	xi := float64(arrival-t.firstArrival) / float64(time.Millisecond)
	t.x = append(t.x, xi)
	t.y = append(t.y, t.smoothedDlay)
	if len(t.x) > trendWindow {
		t.x = t.x[1:]
		t.y = t.y[1:]
	}
	if len(t.x) == trendWindow {
		t.trend = slope(t.x, t.y, t.trend)
	}
}

// slope computes the least-squares slope, keeping the previous value when
// the window is degenerate (zero x-variance).
func slope(x, y []float64, prev float64) float64 {
	n := float64(len(x))
	var sx, sy float64
	for i := range x {
		sx += x[i]
		sy += y[i]
	}
	mx, my := sx/n, sy/n
	var num, den float64
	for i := range x {
		num += float64((x[i] - mx) * (y[i] - my))
		den += float64((x[i] - mx) * (x[i] - mx))
	}
	if den == 0 {
		return prev
	}
	return num / den
}

// value reports the current slope estimate.
func (t *trendline) value() float64 { return t.trend }

// modified reports the threshold-comparable gradient:
// min(numDeltas, 60) × trend × gain.
func (t *trendline) modified() float64 {
	nd := t.numDeltas
	if nd > maxTrendDeltas {
		nd = maxTrendDeltas
	}
	return float64(nd) * t.trend * thresholdGain
}
