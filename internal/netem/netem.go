// Package netem models the wired portions of the Athena testbed: the
// mobile core, the WAN to and from the Zoom SFU, the SFU's application-
// layer forwarding (a secondary jitter source the paper isolates with
// ICMP probes), and the fixed-latency emulated baseline network built with
// Linux tc in §2.
package netem

import (
	"math/rand"
	"time"

	"athena/internal/packet"
	"athena/internal/sim"
	"athena/internal/units"
)

// Link forwards packets after serialization at a finite rate plus a
// propagation delay. A zero Rate means infinite capacity (pure delay).
type Link struct {
	Name   string
	Delay  time.Duration
	Jitter time.Duration // uniform [0, Jitter) added per packet
	Rate   units.BitRate

	Next packet.Handler

	sim       *sim.Simulator
	seed      int64      // the jitter source's seed, drawn at construction
	rng       *rand.Rand // built from seed on the first jittered packet
	busyTil   time.Duration
	forwardFn func(any)
}

// NewLink creates a link on s forwarding to next. It draws its jitter
// seed from s's stream as s.NewStream would, but builds the source only
// when a jittered packet needs it: many links never jitter.
func NewLink(s *sim.Simulator, name string, delay time.Duration, rate units.BitRate, next packet.Handler) *Link {
	if next == nil {
		next = packet.Discard
	}
	l := &Link{Name: name, Delay: delay, Rate: rate, Next: next, sim: s, seed: s.Rand().Int63()}
	l.forwardFn = l.forward
	return l
}

// Handle transmits the packet once the link is free and schedules its
// arrival at the far end: one event per packet, at the end of its
// transmission plus the propagation delay drawn for it.
func (l *Link) Handle(p *packet.Packet) {
	done := max(l.sim.Now(), l.busyTil) + units.TransmitTime(p.Size, l.Rate)
	l.busyTil = done
	delay := l.Delay
	if l.Jitter > 0 {
		if l.rng == nil {
			l.rng = rand.New(rand.NewSource(l.seed))
		}
		delay += time.Duration(l.rng.Int63n(int64(l.Jitter)))
	}
	l.sim.AtArg(done+delay, l.forwardFn, p)
}

// forward hands a packet (the event argument) to the next stage.
func (l *Link) forward(p any) { l.Next.Handle(p.(*packet.Packet)) }

// SFU models the conferencing server's application-layer forwarding. The
// paper identifies it as a secondary jitter source: the ping probes that
// bypass its userspace processing see less jitter than media packets.
// Processing time is a base cost plus occasional heavier-tailed stalls
// (GC pauses, scheduling).
type SFU struct {
	Base       time.Duration
	Jitter     time.Duration // uniform component
	StallProb  float64       // probability of an extra stall
	StallExtra time.Duration // mean of the exponential stall

	Next      packet.Handler
	sim       *sim.Simulator
	rng       *rand.Rand
	forwardFn func(any)
	// Forwarded counts media packets processed.
	Forwarded int
}

// NewSFU creates an SFU stage forwarding to next.
func NewSFU(s *sim.Simulator, next packet.Handler) *SFU {
	if next == nil {
		next = packet.Discard
	}
	f := &SFU{
		Base:       300 * time.Microsecond,
		Jitter:     2 * time.Millisecond,
		StallProb:  0.01,
		StallExtra: 8 * time.Millisecond,
		Next:       next,
		sim:        s,
		rng:        s.NewStream(),
	}
	f.forwardFn = f.forward
	return f
}

// Handle applies application-layer processing delay and forwards.
// ICMP packets bypass userspace processing (they are answered by the
// kernel at the probe target), so they see only the base cost.
func (f *SFU) Handle(p *packet.Packet) {
	d := f.Base
	if p.Kind != packet.KindICMP {
		f.Forwarded++
		d += time.Duration(f.rng.Int63n(int64(f.Jitter) + 1))
		if f.rng.Float64() < f.StallProb {
			d += time.Duration(f.rng.ExpFloat64() * float64(f.StallExtra))
		}
	}
	f.sim.AfterArg(d, f.forwardFn, p)
}

// forward hands a processed packet (the event argument) to the next stage.
func (f *SFU) forward(p any) { f.Next.Handle(p.(*packet.Packet)) }

// FixedLatencyLink reproduces §2's emulated baseline: "a fixed 15 ms
// latency that emulates the cellular network's capacity (calculated from
// the physical transport block sizes) using Linux traffic control (tc)
// over a wired network." The capacity is a constant byte budget per
// interval.
type FixedLatencyLink struct {
	Latency time.Duration
	Next    packet.Handler

	sim    *sim.Simulator
	rate   units.ByteCount // byte budget added per interval
	limit  units.ByteCount // the most budget that may accumulate
	budget units.ByteCount
	queue  []*packet.Packet

	forwardFn func(any)
}

// NewFixedLatencyLink creates the emulated link, granting budget bytes
// every interval. A budget of zero means 1 GiB per interval, an interval
// of zero 2.5 ms.
func NewFixedLatencyLink(s *sim.Simulator, latency time.Duration, budget units.ByteCount, interval time.Duration, next packet.Handler) *FixedLatencyLink {
	if next == nil {
		next = packet.Discard
	}
	if budget <= 0 {
		budget = 1 << 30
	}
	if interval <= 0 {
		interval = 2500 * time.Microsecond
	}
	l := &FixedLatencyLink{
		Latency: latency, Next: next, sim: s,
		// Always allow at least a couple of MTUs to burst.
		rate: budget, limit: max(4*budget, 4000), budget: budget,
	}
	l.forwardFn = l.forward
	s.Every(interval, interval, l.refill)
	return l
}

func (l *FixedLatencyLink) refill() {
	// Token-bucket accumulation: unused budget carries over (bounded), so
	// a packet larger than a single interval's budget still transmits
	// once enough intervals have passed — tc's behavior.
	l.budget = min(l.budget+l.rate, l.limit)
	l.drain()
}

func (l *FixedLatencyLink) drain() {
	for len(l.queue) > 0 && l.queue[0].Size <= l.budget {
		p := l.queue[0]
		l.queue = l.queue[1:]
		l.budget -= p.Size
		l.sim.AfterArg(l.Latency, l.forwardFn, p)
	}
}

// forward hands a packet (the event argument) to the next stage.
func (l *FixedLatencyLink) forward(p any) { l.Next.Handle(p.(*packet.Packet)) }

// Handle sends the packet within the current interval's capacity budget,
// queueing it for later intervals when the budget is spent.
func (l *FixedLatencyLink) Handle(p *packet.Packet) {
	l.queue = append(l.queue, p)
	l.drain()
}

// QueueLen reports packets awaiting budget.
func (l *FixedLatencyLink) QueueLen() int { return len(l.queue) }
