// Package pcc implements a PCC-Vivace-style online-learning congestion
// controller (Dong et al., NSDI 2015/2018) — the class of
// "machine-learning-based approaches" the paper's §1 cites and then
// cautions about: "we show here that they still largely see a clouded
// view of packet arrivals."
//
// The sender alternates monitor intervals at rate r(1±ε), attributes
// every observation to the interval the packet was *sent* in, computes a
// Vivace utility per interval (throughput, latency gradient, loss), and
// steps the base rate along the empirical utility gradient. No model of
// the network is assumed — which is exactly why RAN-induced latency
// sawteeth masquerade as utility gradients and keep the learner chasing
// phantoms (study S3).
//
// Simplifications relative to full Vivace (documented per DESIGN.md):
// fixed wall-clock monitor intervals instead of RTT-scaled ones, a single
// ε, and a bounded constant-step gradient ascent instead of the
// confidence-amplified dual-rate controller.
package pcc

import (
	"math"
	"slices"
	"time"

	"athena/internal/cc"
	"athena/internal/rtp"
	"athena/internal/units"
)

// Vivace utility parameters: U(r) = thr^exponent − bLatency·thr·(dL/dt)⁺
// − cLoss·thr·loss.
const (
	utilityExponent = 0.9
	bLatency        = 900.0
	cLoss           = 11.35
	epsilon         = 0.10                   // probe amplitude (wide: VCA frame-size noise is large)
	stepFraction    = 0.1                    // max relative rate change per decision
	miDuration      = 200 * time.Millisecond // several frames per MI to average out SVC size alternation
	// finalizeGrace is how long after a window closes we wait for its
	// stragglers before computing its utility.
	finalizeGrace = 150 * time.Millisecond
)

// mi accumulates one monitor interval's observations.
type mi struct {
	ackedBytes float64
	lost, recv int
	// latency regression accumulators
	n, sx, sy, sxx, sxy float64
}

func (m *mi) addLatency(atMS, owdMS float64) {
	m.n++
	m.sx += atMS
	m.sy += owdMS
	// Here, in latencySlope, utility and decide, float64() around a
	// product keeps arm64 from fusing it with the neighbouring add, so
	// every GOARCH rounds as amd64 does.
	m.sxx += float64(atMS * atMS)
	m.sxy += float64(atMS * owdMS)
}

// latencySlope is d(owd)/dt over the interval (ms per ms).
func (m *mi) latencySlope() float64 {
	if m.n < 2 {
		return 0
	}
	den := float64(m.n*m.sxx) - float64(m.sx*m.sx)
	if den == 0 {
		return 0
	}
	return (float64(m.n*m.sxy) - float64(m.sx*m.sy)) / den
}

// lossRate is the interval's loss fraction.
func (m *mi) lossRate() float64 {
	t := m.lost + m.recv
	if t == 0 {
		return 0
	}
	return float64(m.lost) / float64(t)
}

// utility computes the Vivace utility for the interval.
func (m *mi) utility() float64 {
	thrMbps := m.ackedBytes * 8 / miDuration.Seconds() / 1e6
	grad := m.latencySlope()
	if grad < 0 {
		grad = 0
	}
	return math.Pow(thrMbps, utilityExponent) - float64(bLatency*thrMbps*grad) - float64(cLoss*thrMbps*m.lossRate())
}

// Controller is the PCC-Vivace-style sender.
type Controller struct {
	base     units.BitRate // rate around which the pair probes
	min, max units.BitRate

	// sendPhase of a packet is derived from its send time: even
	// miDuration windows probe up, odd probe down.
	curWindow int64 // advanced by OnPacketSent

	windows   map[int64]*mi
	utilities map[int64]float64

	// Decisions counts completed probe pairs (diagnostics), and
	// DownDecisions those that stepped the rate down — on a path with
	// capacity headroom, every one of them is the learner misreading an
	// artifact as congestion.
	Decisions     int
	DownDecisions int
	// RateTrace records the base rate (kbps) at each decision, for S3's
	// oscillation measurement.
	RateTrace []float64
}

var _ cc.Controller = (*Controller)(nil)

// New creates a controller probing around initial.
func New(initial, min, max units.BitRate) *Controller {
	return &Controller{
		base:      initial,
		min:       min,
		max:       max,
		windows:   make(map[int64]*mi),
		utilities: make(map[int64]float64),
	}
}

// Name implements cc.Controller.
func (c *Controller) Name() string { return "pcc-vivace" }

// windowOf maps a send time to its monitor-interval index.
func windowOf(at time.Duration) int64 { return int64(at / miDuration) }

// OnPacketSent implements cc.Controller.
func (c *Controller) OnPacketSent(_ uint16, _ units.ByteCount, at time.Duration) {
	if w := windowOf(at); w > c.curWindow {
		c.curWindow = w
	}
}

// OnFeedback implements cc.Controller: attribute arrivals to their send
// windows, finalize windows past the grace period, and take a gradient
// step whenever an up/down pair completes.
func (c *Controller) OnFeedback(fb *rtp.Feedback, hist *cc.History, now time.Duration) {
	for _, rep := range fb.Reports {
		sent, ok := hist.Get(rep.Seq)
		if !ok {
			continue
		}
		w := windowOf(sent.SentAt)
		m := c.windows[w]
		if m == nil {
			m = &mi{}
			c.windows[w] = m
		}
		if !rep.Received {
			m.lost++
			continue
		}
		m.recv++
		m.ackedBytes += float64(sent.Size)
		owdMS := float64(rep.Arrival-sent.SentAt) / float64(time.Millisecond)
		atMS := float64(rep.Arrival) / float64(time.Millisecond)
		m.addLatency(atMS, owdMS)
	}

	// Finalize closed windows and decide on completed pairs.
	for w, m := range c.windows {
		closeAt := time.Duration(w+1) * miDuration
		if now < closeAt+finalizeGrace {
			continue
		}
		c.utilities[w] = m.utility()
		delete(c.windows, w)
	}
	// One report can complete several pairs (a feedback gap); each step
	// builds on the last, so they are taken in window order.
	var pairs []int64
	for w := range c.utilities {
		if _, ok := c.utilities[w+1]; ok && w%2 == 0 {
			pairs = append(pairs, w)
		}
	}
	slices.Sort(pairs)
	for _, w := range pairs {
		c.decide(c.utilities[w], c.utilities[w+1])
		delete(c.utilities, w)
		delete(c.utilities, w+1)
	}
	// Drop stale unpaired utilities (idle stream).
	for w := range c.utilities {
		if time.Duration(w+2)*miDuration+10*finalizeGrace < now {
			delete(c.utilities, w)
		}
	}
}

// decide takes the gradient step.
func (c *Controller) decide(uUp, uDn float64) {
	c.Decisions++
	gradSign := 0.0
	switch {
	case uUp > uDn:
		gradSign = 1
	case uDn > uUp:
		gradSign = -1
	}
	// Step proportional to the (normalized) utility difference, bounded.
	if gradSign < 0 {
		c.DownDecisions++
	}
	diff := math.Abs(uUp - uDn)
	scale := stepFraction * math.Min(1, diff)
	c.base = units.BitRate(float64(c.base) * (1 + float64(gradSign*scale)))
	c.base = units.ClampRate(c.base, c.min, c.max)
	c.RateTrace = append(c.RateTrace, float64(c.base)/1000)
}

// TargetRate implements cc.Controller: r(1+ε) in even send windows,
// r(1−ε) in odd ones.
func (c *Controller) TargetRate() units.BitRate {
	f := 1 + epsilon
	if c.curWindow%2 != 0 {
		f = 1 - epsilon
	}
	return units.ClampRate(units.BitRate(float64(c.base)*f), c.min, c.max)
}
