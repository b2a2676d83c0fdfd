// Package probe implements the ICMP-like echo stream of the paper's
// methodology: the mobile core pings the SFU every 20 ms so Athena can
// attribute core-to-receiver jitter to either the WAN (probes jitter too)
// or the SFU's application-layer processing (only media jitters).
package probe

import (
	"time"

	"athena/internal/packet"
	"athena/internal/sim"
	"athena/internal/stats"
)

// ProbeInterval is the paper's probe cadence.
const ProbeInterval = 20 * time.Millisecond

// ProbeSize is the echo payload size.
const ProbeSize = 64

// Result is one completed echo exchange.
type Result struct {
	Seq      uint32
	SentAt   time.Duration
	EchoedAt time.Duration // arrival at the echo target (one-way)
	DoneAt   time.Duration // arrival back at the prober
}

// OWD reports the forward one-way delay.
func (r Result) OWD() time.Duration { return r.EchoedAt - r.SentAt }

// RTT reports the round-trip time.
func (r Result) RTT() time.Duration { return r.DoneAt - r.SentAt }

// Prober emits echo packets into a forward path; the far end must be
// wired to call Echo, and the return path to call Done.
type Prober struct {
	Flow    uint32
	Results []Result

	sim     *sim.Simulator
	alloc   *packet.Alloc
	forward packet.Handler
	open    map[uint32]*Result
	seq     uint32
	ticker  *sim.Ticker
}

// New creates a prober sending every ProbeInterval into forward. Call
// Start to begin.
func New(s *sim.Simulator, alloc *packet.Alloc, flow uint32, forward packet.Handler) *Prober {
	return &Prober{
		Flow: flow, sim: s, alloc: alloc, forward: forward,
		open: make(map[uint32]*Result),
	}
}

// Start begins probing every ProbeInterval until the simulation ends.
func (p *Prober) Start() {
	p.ticker = p.sim.Every(p.sim.Now(), ProbeInterval, p.send)
}

// Stop halts probing.
func (p *Prober) Stop() {
	if p.ticker != nil {
		p.ticker.Stop()
	}
}

func (p *Prober) send() {
	p.seq++
	pkt := p.alloc.New(packet.KindICMP, p.Flow, ProbeSize, p.sim.Now())
	pkt.Seq = p.seq
	p.open[p.seq] = &Result{Seq: p.seq, SentAt: p.sim.Now()}
	p.forward.Handle(pkt)
}

// Echo records the probe reaching its target; the caller then routes the
// packet back and finally calls Done.
func (p *Prober) Echo(pkt *packet.Packet) {
	if r, ok := p.open[pkt.Seq]; ok {
		r.EchoedAt = p.sim.Now()
	}
}

// Done completes the exchange.
func (p *Prober) Done(pkt *packet.Packet) {
	r, ok := p.open[pkt.Seq]
	if !ok {
		return
	}
	r.DoneAt = p.sim.Now()
	delete(p.open, pkt.Seq)
	p.Results = append(p.Results, *r)
}

// OWDsMS returns the forward one-way delays in milliseconds.
func (p *Prober) OWDsMS() []float64 {
	out := make([]float64, 0, len(p.Results))
	for _, r := range p.Results {
		out = append(out, float64(r.OWD())/float64(time.Millisecond))
	}
	return out
}

// Summary summarizes forward OWDs.
func (p *Prober) Summary() stats.Summary { return stats.Summarize(p.OWDsMS()) }

// Outstanding reports unanswered probes.
func (p *Prober) Outstanding() int { return len(p.open) }
