// Package wifi models a Wi-Fi-like contention-based uplink — one of the
// "ever-growing set of physical and link-layer technologies" §5.1 calls
// on Athena to cover. Where the 5G cell's artifacts are grant
// quantization and scheduling delay, Wi-Fi's are CSMA/CA medium access:
// every packet pays DIFS plus a random backoff, collisions double the
// contention window, and competing stations occupy the medium for whole
// frame durations, so delay variance grows smoothly with load instead of
// stepping on a slot grid.
package wifi

import (
	"math/rand"
	"time"

	"athena/internal/packet"
	"athena/internal/sim"
	"athena/internal/units"
)

// Config parameterizes the BSS. Defaults approximate 802.11ac-era MCS on
// a mid-loaded channel.
type Config struct {
	PHYRate units.BitRate // effective MAC-layer throughput of one station
	// SlotTime, DIFS are the 802.11 timing constants.
	SlotTime time.Duration
	DIFS     time.Duration
	// CWMin/CWMax bound the binary-exponential backoff window (slots).
	CWMin, CWMax int
	// MaxRetries bounds retransmission attempts before a drop.
	MaxRetries int
	// Contenders is the number of competing stations; it drives both the
	// collision probability and how often the medium is found busy.
	Contenders int
	// BusyMeanAir is the mean airtime of a competing station's frame
	// (what we wait out when the medium is busy).
	BusyMeanAir time.Duration
}

// Defaults returns a lightly-loaded home/office BSS.
func Defaults() Config {
	return Config{
		PHYRate:     60 * units.Mbps,
		SlotTime:    9 * time.Microsecond,
		DIFS:        34 * time.Microsecond,
		CWMin:       15,
		CWMax:       1023,
		MaxRetries:  7,
		Contenders:  4,
		BusyMeanAir: 300 * time.Microsecond,
	}
}

// collisionProb is the per-attempt collision probability given n
// contenders (a coarse Bianchi-style approximation: each contender picks
// the same backoff slot with probability ~1/CWMin).
func (c Config) collisionProb() float64 {
	p := float64(c.Contenders) / float64(c.CWMin+1)
	if p > 0.9 {
		p = 0.9
	}
	return p
}

// busyProb is the chance the medium is busy when a backoff slot elapses.
func (c Config) busyProb() float64 {
	p := 0.05 * float64(c.Contenders)
	if p > 0.8 {
		p = 0.8
	}
	return p
}

// AP is the access point's uplink queue for the monitored station: a FIFO
// served by the CSMA/CA process.
type AP struct {
	Cfg  Config
	Next packet.Handler

	sim       *sim.Simulator
	rng       *rand.Rand
	busyTill  time.Duration
	forwardFn func(any)

	// Dropped counts retry-exhausted frames.
	Dropped int
	// Collisions counts collision events (diagnostics).
	Collisions int
}

// New creates the Wi-Fi uplink forwarding to next.
func New(s *sim.Simulator, cfg Config, next packet.Handler) *AP {
	if next == nil {
		next = packet.Discard
	}
	ap := &AP{Cfg: cfg, Next: next, sim: s, rng: s.NewStream()}
	ap.forwardFn = ap.forward
	return ap
}

// Handle enqueues one uplink packet; the CSMA/CA process delivers it.
func (ap *AP) Handle(p *packet.Packet) {
	start := ap.sim.Now()
	if ap.busyTill > start {
		start = ap.busyTill
	}
	done, ok := ap.serve(p, start)
	if !ok {
		ap.Dropped++
		p.GroundTruth.Dropped = true
		return
	}
	ap.busyTill = done
	ap.sim.AtArg(done, ap.forwardFn, p)
}

// forward hands a delivered frame's packet (the event argument) on.
func (ap *AP) forward(p any) { ap.Next.Handle(p.(*packet.Packet)) }

// serve computes the completion time of one frame's CSMA/CA lifecycle
// starting no earlier than start.
func (ap *AP) serve(p *packet.Packet, start time.Duration) (time.Duration, bool) {
	cfg := ap.Cfg
	now := start
	cw := cfg.CWMin
	for attempt := 0; ; attempt++ {
		// DIFS then random backoff; busy medium pauses the countdown.
		now += cfg.DIFS
		slots := ap.rng.Intn(cw + 1)
		for i := 0; i < slots; i++ {
			now += cfg.SlotTime
			if ap.rng.Float64() < cfg.busyProb() {
				// Wait out a competing frame (exponential airtime).
				now += time.Duration(ap.rng.ExpFloat64() * float64(cfg.BusyMeanAir))
			}
		}
		air := units.TransmitTime(p.Size, cfg.PHYRate)
		now += air
		if ap.rng.Float64() >= cfg.collisionProb() {
			// Success (+SIFS+ACK folded into the airtime constant).
			return now, true
		}
		ap.Collisions++
		if attempt >= cfg.MaxRetries {
			return now, false
		}
		if cw < cfg.CWMax {
			cw = cw*2 + 1
			if cw > cfg.CWMax {
				cw = cfg.CWMax
			}
		}
	}
}
