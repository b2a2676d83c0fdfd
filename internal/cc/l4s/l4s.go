// Package l4s implements an L4S-style scalable congestion controller
// (RFC 9330/9331; cf. ABC): the network marks ECN-capable packets CE when
// its queue exceeds a shallow threshold, and the sender adjusts its rate
// every feedback interval proportionally to the CE-mark fraction —
// "accelerate or brake" — rather than inferring congestion from delay.
//
// §5.3 raises the open question of how such marking should treat
// RAN-induced delay that is *not* congestion (HARQ, scheduling): because
// the mark is applied at the queue, not the latency signal, L4S is
// naturally blind to delay spikes that do not involve standing queues —
// which is exactly the property benchmark M4 measures.
package l4s

import (
	"time"

	"athena/internal/cc"
	"athena/internal/rtp"
	"athena/internal/units"
)

// Control parameters (Prague-flavored).
const (
	betaCE  = 0.5             // max multiplicative decrease at 100% marking per RTT
	addIncr = 20 * units.Kbps // additive increase per clean feedback interval
)

// Controller is the L4S sender.
type Controller struct {
	rate     units.BitRate
	min, max units.BitRate

	// MarkFraction is the smoothed CE fraction (diagnostics).
	MarkFraction float64
}

var _ cc.Controller = (*Controller)(nil)

// New creates an L4S controller.
func New(initial, min, max units.BitRate) *Controller {
	return &Controller{rate: initial, min: min, max: max}
}

// Name implements cc.Controller.
func (c *Controller) Name() string { return "l4s" }

// OnPacketSent implements cc.Controller (no send state needed).
func (c *Controller) OnPacketSent(uint16, units.ByteCount, time.Duration) {}

// OnFeedback implements cc.Controller: scale down with the CE fraction,
// probe up additively when unmarked.
func (c *Controller) OnFeedback(fb *rtp.Feedback, _ *cc.History, now time.Duration) {
	ce, recv := 0, 0
	for _, r := range fb.Reports {
		if !r.Received {
			continue
		}
		recv++
		if r.ECE {
			ce++
		}
	}
	if recv == 0 {
		return
	}
	p := float64(ce) / float64(recv)
	// float64() around a product keeps arm64 from fusing it with the
	// neighbouring add, so every GOARCH rounds as amd64 does.
	c.MarkFraction = float64(0.8*c.MarkFraction) + float64(0.2*p)
	if p > 0 {
		c.rate = units.BitRate(float64(c.rate) * (1 - float64(betaCE*p/2)))
	} else {
		c.rate += addIncr
	}
	c.rate = units.ClampRate(c.rate, c.min, c.max)
}

// TargetRate implements cc.Controller.
func (c *Controller) TargetRate() units.BitRate { return c.rate }
