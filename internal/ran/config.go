// Package ran models the 5G Standalone radio access network of the
// paper's testbed at slot granularity: TDD uplink/downlink structure,
// proactive and BSR-requested uplink grants, HARQ retransmissions, shared
// cell capacity with cross-traffic UEs, and per-TB telemetry emission.
//
// The model is deliberately mechanistic rather than statistical: the
// paper's observations — delay spread in 2.5 ms increments, 10 ms BSR
// scheduling delay, 10 ms HARQ inflation, over-granting — all emerge from
// the scheduling mechanics instead of being sampled from distributions.
package ran

import (
	"time"

	"athena/internal/units"
)

// Duplex selects how uplink opportunities are multiplexed — §5.1 calls
// for evaluating congestion control across duplexing strategies, since
// "different base stations use different duplexing strategies" and "some
// cellular networks use Frequency Division Duplexing".
type Duplex uint8

// Duplexing strategies.
const (
	// DuplexTDD time-slices: one uplink slot per SlotsPerPeriod slots.
	DuplexTDD Duplex = iota
	// DuplexFDD gives the uplink its own carrier: every slot is an
	// uplink opportunity, removing the 2.5 ms alignment quantum.
	DuplexFDD
)

// String names the duplexing strategy.
func (d Duplex) String() string {
	if d == DuplexFDD {
		return "FDD"
	}
	return "TDD"
}

// Config parameterizes the cell. Values default (via Defaults) to the
// paper's private 5G setup.
type Config struct {
	// CellID identifies this cell in a multi-cell deployment. It
	// namespaces the TB ID space (the top 16 bits of every TBID), so
	// telemetry merged across cells never conflates two cells'
	// transport blocks.
	// Single-cell scenarios leave it zero, which keeps their TBIDs
	// byte-identical to the historical single-cell numbering.
	CellID uint32

	// Duplex selects TDD (default) or FDD uplink multiplexing.
	Duplex Duplex
	// SlotDuration is one NR slot (0.5 ms at 30 kHz SCS). Different
	// frequency bands slice time differently (§5.1); mmWave at 120 kHz
	// SCS would use 125 µs slots.
	SlotDuration time.Duration
	// SlotsPerPeriod is the TDD pattern length; the last slot of each
	// period is the uplink slot ("DDDDU": downlink slots occur four times
	// as frequently as uplink slots, uplink every 2.5 ms). Ignored for
	// FDD, where every slot carries uplink.
	SlotsPerPeriod int

	// ProactiveTBS is the size of the pre-allocated per-UL-slot grant for
	// UEs with proactive scheduling; it fits one to two ~1200 B packets.
	ProactiveTBS units.ByteCount
	// SchedDelay is the BSR-to-grant-availability delay (~10 ms).
	SchedDelay time.Duration
	// HARQRTT is the retransmission turnaround (10 ms).
	HARQRTT time.Duration
	// MaxHARQ bounds retransmission rounds before the TB is abandoned.
	MaxHARQ int
	// BLER is the per-transmission block error rate of the channel.
	BLER float64

	// CellULRate is the shared uplink capacity of the cell; each UL slot
	// can carry CellULRate × (SlotsPerPeriod × SlotDuration) bits across
	// all UEs.
	CellULRate units.BitRate

	// DownlinkDelay is the (low, stable) over-the-air plus scheduling
	// delay of the downlink direction.
	DownlinkDelay time.Duration
	// CoreDelay is RAN-to-mobile-core transport (point ② is just behind
	// the gNB).
	CoreDelay time.Duration

	// ECNThreshold, when >0, CE-marks ECN-capable uplink packets that
	// find more than this many bytes already queued at the UE — the
	// L4S-style shallow marking benchmark M4 evaluates (§5.3).
	ECNThreshold units.ByteCount

	// Channel fading (Gilbert-Elliott): the cell alternates between a
	// good state (BLER, full capacity) and fades with mean durations
	// FadeMeanGood/FadeMeanBad (exponential). During a fade the block
	// error rate becomes FadeBLER and the schedulable capacity is scaled
	// by FadeCapacityFactor (lower MCS). Zero FadeMeanBad disables
	// fading. §3.2: retransmissions "occur frequently, particularly in
	// environments with high interference or signal variability" — fades
	// are what make those errors come in bursts.
	FadeMeanGood, FadeMeanBad time.Duration
	FadeBLER                  float64
	FadeCapacityFactor        float64
}

// LTEDefaults returns a 4G LTE-flavored cell: FDD uplink with 1 ms
// subframes, the ~8 ms SR-to-grant cycle and 8 ms HARQ RTT of LTE —
// the "4G" point in §5.1's technology axis.
func LTEDefaults() Config {
	c := Defaults()
	c.Duplex = DuplexFDD
	c.SlotDuration = time.Millisecond // LTE subframe
	c.SlotsPerPeriod = 1
	c.SchedDelay = 8 * time.Millisecond
	c.HARQRTT = 8 * time.Millisecond
	c.ProactiveTBS = 640 // same speculative rate per unit time
	return c
}

// Defaults returns the paper testbed's configuration.
func Defaults() Config {
	return Config{
		SlotDuration:   500 * time.Microsecond,
		SlotsPerPeriod: 5,
		ProactiveTBS:   1600,
		SchedDelay:     10 * time.Millisecond,
		HARQRTT:        10 * time.Millisecond,
		MaxHARQ:        4,
		BLER:           0.0,
		CellULRate:     20 * units.Mbps,
		DownlinkDelay:  4 * time.Millisecond,
		CoreDelay:      time.Millisecond,
	}
}

// ULPeriod is the uplink slot cadence: 2.5 ms for the default TDD
// pattern, one slot for FDD.
func (c Config) ULPeriod() time.Duration {
	if c.Duplex == DuplexFDD {
		return c.SlotDuration
	}
	return c.SlotDuration * time.Duration(c.SlotsPerPeriod)
}

// SlotCapacity is the byte budget of one UL slot across all UEs.
func (c Config) SlotCapacity() units.ByteCount {
	return units.BytesOver(c.CellULRate, c.ULPeriod())
}

// FrameStructure renders the slot map and BSR-grant timeline as text —
// the content of the paper's Fig 6, emitted by the F6 bench.
func (c Config) FrameStructure() string {
	var s string
	if c.Duplex == DuplexFDD {
		s = "FDD: uplink carrier continuously available (slot = " + c.SlotDuration.String() + "):\n  [U][U][U][U][U]...\n"
	} else {
		s = "TDD pattern (one period = " + c.ULPeriod().String() + "):\n  "
		for i := 0; i < c.SlotsPerPeriod; i++ {
			if i == c.SlotsPerPeriod-1 {
				s += "[U]"
			} else {
				s += "[D]"
			}
		}
		s += "\n"
	}
	s += "Uplink slot every " + c.ULPeriod().String() +
		"; BSR -> requested grant after " + c.SchedDelay.String() +
		"; HARQ retransmission after " + c.HARQRTT.String() + "\n"
	return s
}
