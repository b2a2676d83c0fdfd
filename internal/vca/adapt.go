// Package vca assembles the video-conferencing endpoints of the testbed:
// a Zoom-like sender (camera → SVC encoder → RTP packetizer → pacer, with
// the frame-rate adaptation policy of Fig 8) and a receiver (frame
// reassembly → jitter buffer → renderer, plus transport-wide feedback
// generation).
package vca

import (
	"math/bits"
	"time"

	"athena/internal/media"
	"athena/internal/stats"
)

// Adaptation implements the policy the paper reverse-engineered from Zoom
// (§2, Fig 8): react to very high absolute delay (above one second) by
// switching the SVC layer set and "more permanently" reducing the frame
// rate to 14 fps; react to high jitter by transiently skipping enhancement
// frames (observed rates around 20 fps).
type Adaptation struct {
	// Thresholds; defaults match the observed behavior.
	HighDelay    time.Duration // sustained OWD that forces 14 fps mode
	RecoverDelay time.Duration // OWD below which 28 fps may resume
	HighJitter   time.Duration // OWD stddev that triggers frame skipping
	RecoverHold  time.Duration // time below RecoverDelay before resuming
	SkipBatch    int           // enhancement frames skipped per trigger

	// window is a ring of the latest jitterWindow OWD samples: n held,
	// the oldest at head. sum and sq are their exact Σd and Σd², kept for
	// the samples within ±maxExactOWD; wide counts those beyond it.
	window  [jitterWindow]time.Duration
	head, n int
	sum     int64
	sq      u128
	wide    int

	mode media.Mode

	lastHigh    time.Duration
	lastRecover time.Duration
	modeChanges int
}

// NewAdaptation returns the default policy starting in 28 fps mode.
func NewAdaptation() *Adaptation {
	return &Adaptation{
		HighDelay:    time.Second,
		RecoverDelay: 300 * time.Millisecond,
		HighJitter:   25 * time.Millisecond,
		RecoverHold:  20 * time.Second,
		SkipBatch:    4,
		mode:         media.Mode28FPS,
	}
}

// Mode reports the current temporal mode.
func (a *Adaptation) Mode() media.Mode { return a.mode }

// ModeChanges reports how many times the mode switched (diagnostics).
func (a *Adaptation) ModeChanges() int { return a.modeChanges }

// Decision is the outcome of one OWD observation.
type Decision struct {
	Mode       media.Mode
	ModeChange bool
	SkipFrames int // enhancement frames to skip transiently
}

// Observe folds one estimated one-way delay sample (from CC feedback) in
// and returns the adaptation decision.
func (a *Adaptation) Observe(owd time.Duration, now time.Duration) Decision {
	a.push(owd)
	dec := Decision{Mode: a.mode}

	// Permanent-ish mode reduction on very high absolute delay.
	if owd > a.HighDelay {
		a.lastHigh = now
		if a.mode == media.Mode28FPS {
			a.mode = media.Mode14FPS
			a.modeChanges++
			dec.Mode = a.mode
			dec.ModeChange = true
			return dec
		}
	}
	// Recovery: sustained low delay switches back up.
	if a.mode == media.Mode14FPS {
		if owd > a.RecoverDelay {
			a.lastRecover = now
		} else if now-a.lastRecover > a.RecoverHold && now-a.lastHigh > a.RecoverHold {
			a.mode = media.Mode28FPS
			a.modeChanges++
			dec.Mode = a.mode
			dec.ModeChange = true
			return dec
		}
	}

	// Transient frame skipping on high jitter.
	if a.n >= 10 && a.jittery() {
		dec.SkipFrames = a.SkipBatch
	}
	return dec
}

// jitterWindow is how many recent OWD samples the jitter test reads.
const jitterWindow = 50

// maxExactOWD bounds the samples whose sums are kept: within it Σd fits
// an int64 and n·Σd² a u128 with room to spare.
const maxExactOWD = time.Duration(1) << 40

// push adds d to the window, evicting the oldest sample once it is full.
func (a *Adaptation) push(d time.Duration) {
	if a.n == jitterWindow {
		a.account(a.window[a.head], false)
		a.window[a.head] = d
		a.head = (a.head + 1) % jitterWindow
	} else {
		a.window[(a.head+a.n)%jitterWindow] = d
		a.n++
	}
	a.account(d, true)
}

// account adds d to (or removes it from) the window's sums.
func (a *Adaptation) account(d time.Duration, add bool) {
	if d > maxExactOWD || d < -maxExactOWD {
		if add {
			a.wide++
		} else {
			a.wide--
		}
		return
	}
	sq := mul64(absDuration(d), absDuration(d))
	if add {
		a.sum += int64(d)
		a.sq = a.sq.add(sq)
	} else {
		a.sum -= int64(d)
		a.sq = a.sq.sub(sq)
	}
}

// jittery reports jitter() > HighJitter without the window pass.
//
// jitter() truncates the float64 standard deviation to whole
// nanoseconds, so it exceeds HighJitter exactly when the float variance
// reaches t² with t = HighJitter+1. The exact n²·Var = n·Σd² − (Σd)²
// decides every window whose variance is clear of t²: by a relative
// 2⁻²⁰ (~10⁻⁶), plus a term that grows with the mean, since the
// Welford pass rounds in proportion to |mean|·σ. Windows inside that
// band, and thresholds or samples beyond the exact range, take the
// Welford pass itself, so every decision is the one jitter() makes.
func (a *Adaptation) jittery() bool {
	if high, ok := a.jitteryFromSums(); ok {
		return high
	}
	return a.jitter() > a.HighJitter
}

// jitteryFromSums decides jittery from the exact sums; ok is false when
// the window is too close to the threshold, or out of range, to tell.
func (a *Adaptation) jitteryFromSums() (high, ok bool) {
	h := a.HighJitter
	if a.wide > 0 || h < 0 || h >= 1<<31 {
		return false, false
	}
	n := uint64(a.n)
	t := uint64(h) + 1
	sum := absDuration(time.Duration(a.sum))
	v := a.sq.mul(n).sub(mul64(sum, sum))
	bound := mul64(t, t).mul(n * n)
	slack := bound.shr(20).add(mul64(n*sum, t).shr(36)).add(u128{lo: n * n})
	switch {
	case v.add(slack).less(bound):
		return false, true
	case bound.add(slack).less(v):
		return true, true
	}
	return false, false
}

// jitter is the standard deviation of the recent OWD window: a Welford
// pass from the oldest sample to the newest.
func (a *Adaptation) jitter() time.Duration {
	var r stats.Running
	for i := range a.n {
		r.Add(float64(a.window[(a.head+i)%jitterWindow]))
	}
	return time.Duration(r.Stddev())
}

func absDuration(d time.Duration) uint64 {
	if d < 0 {
		return uint64(-d)
	}
	return uint64(d)
}

// u128 is an unsigned 128-bit integer, enough for the window's exact
// square sums.
type u128 struct{ hi, lo uint64 }

func mul64(x, y uint64) u128 {
	hi, lo := bits.Mul64(x, y)
	return u128{hi, lo}
}

func (x u128) add(y u128) u128 {
	lo, c := bits.Add64(x.lo, y.lo, 0)
	hi, _ := bits.Add64(x.hi, y.hi, c)
	return u128{hi, lo}
}

func (x u128) sub(y u128) u128 {
	lo, b := bits.Sub64(x.lo, y.lo, 0)
	hi, _ := bits.Sub64(x.hi, y.hi, b)
	return u128{hi, lo}
}

// mul multiplies by a small factor; the product must fit 128 bits.
func (x u128) mul(m uint64) u128 {
	hi, lo := bits.Mul64(x.lo, m)
	return u128{x.hi*m + hi, lo}
}

// shr shifts right by 0 < k < 64 bits.
func (x u128) shr(k uint) u128 { return u128{x.hi >> k, x.lo>>k | x.hi<<(64-k)} }

func (x u128) less(y u128) bool { return x.hi < y.hi || x.hi == y.hi && x.lo < y.lo }
