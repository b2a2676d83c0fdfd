package gcc

import (
	"time"

	"athena/internal/cc"
	"athena/internal/rtp"
	"athena/internal/units"
)

// TracePoint is one per-packet diagnostic sample: the data Fig 10 plots.
type TracePoint struct {
	PacketIndex int
	// Trend is the raw filtered delay gradient (slope), the figure's
	// y-axis.
	Trend float64
	// Threshold is the detector threshold scaled back to slope units so
	// it is comparable to Trend (the modified trend divides out
	// numDeltas × gain).
	Threshold float64
	// Overuse marks packets processed while the detector reported
	// overuse.
	Overuse bool
}

// GCC is the delay- plus loss-based Google Congestion Control sender.
type GCC struct {
	ia       interArrival
	tl       trendline
	det      *detector
	rc       *aimd
	acked    *cc.RateWindow
	loss     cc.LossEstimator
	lossRate units.BitRate

	// DelayAdjust, when set, is subtracted from each packet's reported
	// arrival time before gradient estimation. The §5.3 PHY-informed
	// variant injects per-packet RAN-delay corrections here; plain GCC
	// leaves it nil.
	DelayAdjust func(seq uint16) (time.Duration, bool)

	// Trace accumulates per-packet diagnostics when CaptureTrace is true.
	CaptureTrace bool
	Trace        []TracePoint
	OveruseCount int

	pktIndex int
}

var _ cc.Controller = (*GCC)(nil)

// New creates a GCC instance with the given initial and bounding rates.
func New(initial, min, max units.BitRate) *GCC {
	return &GCC{
		det:      newDetector(),
		rc:       newAIMD(initial, min, max),
		acked:    cc.NewRateWindow(0),
		lossRate: max,
	}
}

// Name implements cc.Controller.
func (g *GCC) Name() string { return "gcc" }

// OnPacketSent implements cc.Controller (send times are read from the
// sender's history at feedback).
func (g *GCC) OnPacketSent(uint16, units.ByteCount, time.Duration) {}

// OnFeedback implements cc.Controller: runs the delay-based estimator over
// the report's arrivals and updates the AIMD rate.
func (g *GCC) OnFeedback(fb *rtp.Feedback, hist *cc.History, now time.Duration) {
	g.loss.Update(fb)
	sig := UsageNormal
	for _, rep := range fb.Reports {
		if !rep.Received {
			g.pktIndex++
			continue
		}
		sent, ok := hist.Get(rep.Seq)
		if !ok {
			g.pktIndex++
			continue
		}
		arrival := rep.Arrival
		if g.DelayAdjust != nil {
			if adj, ok := g.DelayAdjust(rep.Seq); ok {
				arrival -= adj
			}
		}
		g.acked.Add(now, sent.Size)
		d, ok := g.ia.add(sent.SentAt, arrival)
		if ok {
			g.tl.update(d.d, arrival)
			sig = g.det.detect(g.tl.modified(), g.tl.value(), d.arrival, now)
			if sig == UsageOveruse {
				g.OveruseCount++
			}
		}
		g.pktIndex++
		if g.CaptureTrace {
			nd := g.tl.numDeltas
			if nd > maxTrendDeltas {
				nd = maxTrendDeltas
			}
			scale := float64(nd) * thresholdGain
			thr := g.det.threshold
			if scale > 0 {
				thr /= scale
			}
			g.Trace = append(g.Trace, TracePoint{
				PacketIndex: g.pktIndex,
				Trend:       g.tl.value(),
				Threshold:   thr,
				Overuse:     g.det.hypothesis == UsageOveruse,
			})
		}
	}

	// Delay-based rate update with the final signal of this report.
	g.rc.update(sig, g.acked.Rate(now), now)

	// Sender-side loss controller (Carlucci et al. §4.1): >10% loss
	// multiplicatively decreases, <2% gently increases.
	lf := g.loss.Fraction()
	switch {
	case lf > 0.10:
		g.lossRate = units.BitRate(float64(g.lossRate) * (1 - float64(0.5*lf)))
	case lf < 0.02:
		g.lossRate = units.BitRate(float64(g.lossRate) * 1.05)
	}
	g.lossRate = units.ClampRate(g.lossRate, g.rc.minRate, g.rc.maxRate)
}

// TargetRate implements cc.Controller: the min of the delay-based and
// loss-based rates.
func (g *GCC) TargetRate() units.BitRate {
	if g.lossRate < g.rc.rate {
		return g.lossRate
	}
	return g.rc.rate
}
