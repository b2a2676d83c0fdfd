// Package vca assembles the video-conferencing endpoints of the testbed:
// a Zoom-like sender (camera → SVC encoder → RTP packetizer → pacer, with
// the frame-rate adaptation policy of Fig 8) and a receiver (frame
// reassembly → jitter buffer → renderer, plus transport-wide feedback
// generation).
package vca

import (
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

	window []time.Duration
	mode   media.Mode

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
	a.window = append(a.window, owd)
	if len(a.window) > 50 {
		a.window = a.window[1:]
	}
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
	if len(a.window) >= 10 && a.jitter() > a.HighJitter {
		dec.SkipFrames = a.SkipBatch
	}
	return dec
}

// jitter is the standard deviation of the recent OWD window.
func (a *Adaptation) jitter() time.Duration {
	var r stats.Running
	for _, d := range a.window {
		r.Add(float64(d))
	}
	return time.Duration(r.Stddev())
}
