package gcc

import "time"

// Usage is the detector's hypothesis about network utilization.
type Usage uint8

// Detector outputs.
const (
	UsageNormal Usage = iota
	UsageOveruse
	UsageUnderuse
)

// String names the hypothesis.
func (u Usage) String() string {
	switch u {
	case UsageOveruse:
		return "overuse"
	case UsageUnderuse:
		return "underuse"
	}
	return "normal"
}

// Overuse detector parameters (WebRTC values).
const (
	initialThreshold = 12.5 // ms, on the modified trend
	thresholdMin     = 6.0
	thresholdMax     = 600.0
	gainUp           = 0.0087 // threshold adaptation when |m| > threshold
	gainDown         = 0.039  // threshold adaptation when |m| < threshold
	maxAdaptOffset   = 15.0   // |m| beyond threshold+15 does not adapt it
	overuseTime      = 10 * time.Millisecond
)

// detector is the adaptive-threshold overuse detector.
type detector struct {
	threshold  float64
	overUsing  time.Duration
	overCount  int
	prevTrend  float64
	lastUpdate time.Duration
	haveUpdate bool
	hypothesis Usage
}

func newDetector() *detector {
	return &detector{threshold: initialThreshold}
}

// detect consumes the modified trend m and the raw trend (for the
// monotonicity check), with tsDelta the time since the previous group.
func (d *detector) detect(m, trend float64, tsDelta time.Duration, now time.Duration) Usage {
	switch {
	case m > d.threshold:
		d.overUsing += tsDelta
		d.overCount++
		if d.overUsing > overuseTime && d.overCount > 1 && trend >= d.prevTrend {
			d.hypothesis = UsageOveruse
		}
	case m < -d.threshold:
		d.overUsing = 0
		d.overCount = 0
		d.hypothesis = UsageUnderuse
	default:
		d.overUsing = 0
		d.overCount = 0
		d.hypothesis = UsageNormal
	}
	d.prevTrend = trend
	d.adapt(m, now)
	return d.hypothesis
}

// adapt moves the threshold toward |m|: slowly upward (so a few spikes do
// not desensitize the detector), faster downward.
func (d *detector) adapt(m float64, now time.Duration) {
	am := m
	if am < 0 {
		am = -am
	}
	if am > d.threshold+maxAdaptOffset {
		d.lastUpdate = now
		d.haveUpdate = true
		return
	}
	k := gainDown
	if am > d.threshold {
		k = gainUp
	}
	dt := 100.0 // ms cap
	if d.haveUpdate {
		if ms := float64(now-d.lastUpdate) / float64(time.Millisecond); ms < dt {
			dt = ms
		}
	}
	d.threshold += float64(k * (am - d.threshold) * dt)
	if d.threshold < thresholdMin {
		d.threshold = thresholdMin
	}
	if d.threshold > thresholdMax {
		d.threshold = thresholdMax
	}
	d.lastUpdate = now
	d.haveUpdate = true
}
