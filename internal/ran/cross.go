package ran

import (
	"time"

	"athena/internal/packet"
	"athena/internal/sim"
	"athena/internal/units"
)

// CrossPhase is one segment of the cross-traffic schedule: the aggregate
// offered uplink load of the competing UEs starting at Start.
type CrossPhase struct {
	Start time.Duration
	Rate  units.BitRate
}

// CrossSource drives n competing UEs with CBR uplink traffic following a
// phase schedule. Packets are 1200 B, the typical size the paper cites.
type CrossSource struct {
	ues    []*UE
	alloc  *packet.Alloc
	sim    *sim.Simulator
	phases []CrossPhase
	rate   units.BitRate
	ticker *sim.Ticker
}

// CrossPacketSize is the fixed cross-traffic datagram size.
const CrossPacketSize units.ByteCount = 1200

// NewCrossSource attaches n BSR-scheduled UEs (ids starting at baseID) to
// r and drives them per the schedule. Packet pacing gets a small
// deterministic phase offset per UE so bursts do not align artificially.
func NewCrossSource(s *sim.Simulator, r *RAN, alloc *packet.Alloc, n int, baseID uint32, phases []CrossPhase) *CrossSource {
	cs := &CrossSource{alloc: alloc, sim: s, phases: phases}
	for i := 0; i < n; i++ {
		cs.ues = append(cs.ues, r.AttachUE(baseID+uint32(i), SchedBSROnly))
	}
	for _, ph := range phases {
		ph := ph
		s.At(ph.Start, func() { cs.setRate(ph.Rate) })
	}
	return cs
}

// BurstInterval is the per-UE application send cadence. Real mobile
// uplinks emit bursts (a web upload chunk, a video frame, a sensor batch)
// rather than per-packet CBR; burstiness is what makes cross traffic
// inflate the monitored UE's delay the way Fig 3 shows.
const BurstInterval = 15 * time.Millisecond

// setRate reconfigures the aggregate offered load.
func (cs *CrossSource) setRate(r units.BitRate) {
	cs.rate = r
	if cs.ticker != nil {
		cs.ticker.Stop()
		cs.ticker = nil
	}
	if r <= 0 || len(cs.ues) == 0 {
		return
	}
	perUE := r / units.BitRate(len(cs.ues))
	burstBytes := units.BytesOver(perUE, BurstInterval)
	pktsPerBurst := int((burstBytes + CrossPacketSize - 1) / CrossPacketSize)
	if pktsPerBurst < 1 {
		pktsPerBurst = 1
	}
	rng := cs.sim.NewStream()
	i := 0
	// One UE bursts each tick; ticks are BurstInterval/n apart so each UE
	// keeps its own BurstInterval cadence, with jitter so UE phases wander
	// relative to the video frame clock.
	tick := BurstInterval / time.Duration(len(cs.ues))
	cs.ticker = cs.sim.Every(cs.sim.Now(), tick, func() {
		u := cs.ues[i%len(cs.ues)]
		i++
		n := pktsPerBurst
		// ±40% burst-size jitter keeps the aggregate near the target rate
		// while decorrelating bursts.
		// float64() keeps arm64 from fusing Float64's scaling product
		// with the subtraction, so every GOARCH rounds as amd64 does.
		n += int(float64(n) * (float64(rng.Float64()) - 0.5) * 0.8)
		if n < 1 {
			n = 1
		}
		for j := 0; j < n; j++ {
			p := cs.alloc.New(packet.KindCross, u.ID, CrossPacketSize, cs.sim.Now())
			u.Handle(p)
		}
	})
}

// Rate reports the current aggregate offered load.
func (cs *CrossSource) Rate() units.BitRate { return cs.rate }
