package netem

import (
	"math"
	"math/rand"
	"time"

	"athena/internal/packet"
	"athena/internal/sim"
	"athena/internal/units"
)

// LEOLink models a low-earth-orbit satellite access path — another of the
// §5.1 access technologies. Its signature artifacts differ from both 5G
// and Wi-Fi: the base propagation delay drifts as the serving satellite
// moves across the sky, and every ~15 s a handover to the next satellite
// steps the path length discontinuously and briefly interrupts
// forwarding. (Cf. Starlink's 15-second reconfiguration interval.)
type LEOLink struct {
	// BaseDelay is the mean one-way propagation+processing delay.
	BaseDelay time.Duration
	// DriftAmp bounds the within-pass sinusoidal delay drift.
	DriftAmp time.Duration
	// HandoverEvery is the reconfiguration cadence.
	HandoverEvery time.Duration
	// HandoverStepMax bounds the per-handover delay step (uniform ±).
	HandoverStepMax time.Duration
	// OutageMean is the mean forwarding gap during a handover.
	OutageMean time.Duration
	// Rate bounds throughput (0 = unconstrained).
	Rate units.BitRate

	Next packet.Handler

	sim       *sim.Simulator
	rng       *rand.Rand
	offset    time.Duration // current handover-accumulated delay step
	outageTil time.Duration
	busyTil   time.Duration
	start     time.Duration

	// Handovers counts reconfigurations (diagnostics).
	Handovers int
}

// NewLEOLink creates a satellite path with Starlink-flavored defaults,
// forwarding to next.
func NewLEOLink(s *sim.Simulator, next packet.Handler) *LEOLink {
	if next == nil {
		next = packet.Discard
	}
	l := &LEOLink{
		BaseDelay:       25 * time.Millisecond,
		DriftAmp:        4 * time.Millisecond,
		HandoverEvery:   15 * time.Second,
		HandoverStepMax: 8 * time.Millisecond,
		OutageMean:      120 * time.Millisecond,
		Rate:            100 * units.Mbps,
		Next:            next,
		sim:             s,
		rng:             s.NewStream(),
		start:           s.Now(),
	}
	s.Every(s.Now()+l.HandoverEvery, l.HandoverEvery, l.handover)
	return l
}

// handover switches satellites: step the delay, open a short outage.
func (l *LEOLink) handover() {
	l.Handovers++
	step := time.Duration(l.rng.Int63n(int64(2*l.HandoverStepMax))) - l.HandoverStepMax
	l.offset = step
	outage := time.Duration(l.rng.ExpFloat64() * float64(l.OutageMean))
	l.outageTil = l.sim.Now() + outage
}

// delayNow is the current one-way delay: base + sinusoidal drift within
// the pass + the handover step.
func (l *LEOLink) delayNow() time.Duration {
	elapsed := l.sim.Now() - l.start
	phase := float64(elapsed%l.HandoverEvery) / float64(l.HandoverEvery)
	// Delay shrinks toward mid-pass (satellite overhead) and grows at the
	// edges: a half-cosine bowl. float64() keeps arm64 from fusing the
	// product with the subtraction.
	drift := float64(l.DriftAmp) * (0.5 - float64(0.5*cos2pi(phase)))
	return l.BaseDelay + time.Duration(drift) + l.offset
}

// cos2pi is cos(2πx).
func cos2pi(x float64) float64 { return math.Cos(2 * math.Pi * x) }

// Handle forwards the packet after serialization, any handover outage,
// and the current path delay.
func (l *LEOLink) Handle(p *packet.Packet) {
	now := l.sim.Now()
	start := now
	if l.busyTil > start {
		start = l.busyTil
	}
	if l.outageTil > start {
		start = l.outageTil // buffered through the handover gap
	}
	done := start + units.TransmitTime(p.Size, l.Rate)
	l.busyTil = done
	delay := l.delayNow()
	l.sim.At(done, func() {
		l.sim.After(delay, func() { l.Next.Handle(p) })
	})
}
