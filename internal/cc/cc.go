// Package cc defines the sender-side congestion-control interface the
// simulated VCA drives, plus helpers shared by the concrete algorithms
// (GCC, the §5.3 PHY-informed and L4S variants, and the PCC-Vivace-style
// learner of study S3, in subpackages).
//
// All algorithms are fed the same inputs a real WebRTC sender has: its own
// send history and the receiver's transport-wide feedback reports
// (sequence → arrival time, loss, ECN). Everything else — including any
// physical-layer hints — must come through an explicit side channel,
// mirroring the architectural point of the paper.
package cc

import (
	"time"

	"athena/internal/rtp"
	"athena/internal/units"
)

// Controller is a sender-side congestion controller.
type Controller interface {
	// OnPacketSent informs the controller of a transmitted packet.
	OnPacketSent(twSeq uint16, size units.ByteCount, at time.Duration)
	// OnFeedback delivers a transport-wide feedback report at time now
	// (sender clock). sent is the sender's history of transmitted packets,
	// in which the controller looks up each report's send time and size;
	// the sender owns it and the controller only reads it.
	OnFeedback(fb *rtp.Feedback, sent *History, now time.Duration)
	// TargetRate reports the current media rate budget.
	TargetRate() units.BitRate
	// Name identifies the algorithm in bench output.
	Name() string
}

// SentPacket is the sender-side record of one transmitted packet.
type SentPacket struct {
	Seq    uint16
	Size   units.ByteCount
	SentAt time.Duration
}

// History ring-buffers sent-packet records keyed by transport-wide
// sequence number, for matching against feedback.
type History struct {
	slots [historySize]SentPacket
	valid [historySize]bool
}

const historySize = 1 << 12 // must exceed feedback round trips in packets

// Add records a sent packet.
func (h *History) Add(p SentPacket) {
	h.slots[p.Seq%historySize] = p
	h.valid[p.Seq%historySize] = true
}

// Get looks up the record for seq.
func (h *History) Get(seq uint16) (SentPacket, bool) {
	p := h.slots[seq%historySize]
	if !h.valid[seq%historySize] || p.Seq != seq {
		return SentPacket{}, false
	}
	return p, true
}

// RateWindow computes a running received-rate estimate from feedback
// arrivals over a sliding window, used by AIMD decreases ("0.85 × acked
// rate").
type RateWindow struct {
	Window time.Duration
	events []rateEvent
}

type rateEvent struct {
	at   time.Duration
	size units.ByteCount
}

// NewRateWindow creates a window of the given width (default 500 ms).
func NewRateWindow(w time.Duration) *RateWindow {
	if w <= 0 {
		w = 500 * time.Millisecond
	}
	return &RateWindow{Window: w}
}

// Add records size bytes acked/arrived at time at.
func (r *RateWindow) Add(at time.Duration, size units.ByteCount) {
	r.events = append(r.events, rateEvent{at, size})
	r.trim(at)
}

func (r *RateWindow) trim(now time.Duration) {
	cut := 0
	for cut < len(r.events) && r.events[cut].at < now-r.Window {
		cut++
	}
	r.events = r.events[cut:]
}

// Rate reports the average rate over the window ending at now.
func (r *RateWindow) Rate(now time.Duration) units.BitRate {
	r.trim(now)
	if len(r.events) == 0 {
		return 0
	}
	var total units.ByteCount
	for _, e := range r.events {
		total += e.size
	}
	span := r.Window
	return units.RateOf(total, span)
}

// LossEstimator tracks the loss fraction over recent feedback.
type LossEstimator struct {
	frac float64
}

// Update folds one feedback report into the smoothed loss fraction.
func (l *LossEstimator) Update(fb *rtp.Feedback) {
	recv, lost := 0, 0
	for _, rep := range fb.Reports {
		if rep.Received {
			recv++
		} else {
			lost++
		}
	}
	if recv+lost == 0 {
		return
	}
	inst := float64(lost) / float64(recv+lost)
	l.frac = float64(0.7*l.frac) + float64(0.3*inst)
}

// Fraction reports the smoothed loss fraction in [0,1].
func (l *LossEstimator) Fraction() float64 { return l.frac }
