// Package telemetry defines the NG-Scope-like physical-layer telemetry
// stream Athena consumes: one record per transport-block transmission,
// carrying the scheduling and HARQ information a 5G control-channel
// sniffer decodes from DCI messages.
//
// In the paper this data comes from NG-Scope [Xie & Jamieson 2022]
// sniffing the cell's control channel; here the RAN model emits the ground
// truth directly. The record layout deliberately matches what a sniffer
// can see — notably it does NOT include which IP packets a TB carried;
// recovering that mapping is the Athena correlator's job. The PacketIDs
// field carries the simulator's ground truth for scoring the correlator
// and is excluded from the "sniffer view" helper.
package telemetry

import (
	"time"

	"athena/internal/units"
)

// GrantKind distinguishes how the uplink allocation was issued.
type GrantKind uint8

// Grant kinds. Proactive grants are pre-allocated before any BSR;
// requested grants respond to a Buffer Status Report ~10 ms earlier;
// app-aware and oracle grants implement the §5.2 mitigation strategies.
const (
	GrantProactive GrantKind = iota
	GrantRequested
	GrantAppAware
	GrantOracle
)

// String names the grant kind as in Fig 9's legend.
func (g GrantKind) String() string {
	switch g {
	case GrantProactive:
		return "Proactive"
	case GrantRequested:
		return "Requested"
	case GrantAppAware:
		return "AppAware"
	case GrantOracle:
		return "Oracle"
	}
	return "?"
}

// TBRecord describes one transmission attempt of one transport block.
// A TB that needs HARQ retransmission produces one record per attempt,
// sharing TBID with HARQRound incrementing. Fields are ordered largest
// first, so a TBRecord is 72 bytes.
type TBRecord struct {
	TBID      uint64
	At        time.Duration // UL slot start of this transmission attempt
	TBS       units.ByteCount
	UsedBytes units.ByteCount // media/cross bytes actually carried (rest is padding)
	HARQRound int             // 0 = initial transmission

	// PacketIDs is simulator ground truth (not visible to a sniffer).
	PacketIDs []uint64

	UE     uint32
	Grant  GrantKind
	Failed bool // this attempt failed CRC and will be retransmitted
}

// Used reports whether the TB carried any payload.
func (r TBRecord) Used() bool { return r.UsedBytes > 0 }

// IsRetx reports whether this record is a HARQ retransmission attempt.
func (r TBRecord) IsRetx() bool { return r.HARQRound > 0 }

// Collector accumulates TB records in transmission order.
type Collector struct {
	Records []TBRecord
}

// Add appends one record.
func (c *Collector) Add(r TBRecord) { c.Records = append(c.Records, r) }

// SnifferView returns copies of the records with ground-truth fields
// stripped, i.e. exactly what NG-Scope would deliver.
func (c *Collector) SnifferView() []TBRecord {
	out := make([]TBRecord, len(c.Records))
	copy(out, c.Records)
	for i := range out {
		out[i].PacketIDs = nil
	}
	return out
}

// ForUE filters records for one UE, preserving order.
func (c *Collector) ForUE(ue uint32) []TBRecord {
	var out []TBRecord
	for _, r := range c.Records {
		if r.UE == ue {
			out = append(out, r)
		}
	}
	return out
}

// Window returns records with At in [from, to).
func (c *Collector) Window(from, to time.Duration) []TBRecord {
	var out []TBRecord
	for _, r := range c.Records {
		if r.At >= from && r.At < to {
			out = append(out, r)
		}
	}
	return out
}

// Waste summarizes granted-but-unused capacity.
type Waste struct {
	TotalTBS, UsedBytes units.ByteCount
	EmptyTBs            int // TBs that carried nothing at all
	EmptyRetx           int // retransmissions of empty TBs (pure waste)
	TBs                 int
}

// WasteOf computes the waste summary over records.
func WasteOf(records []TBRecord) Waste {
	var w Waste
	for _, r := range records {
		w.TBs++
		w.TotalTBS += r.TBS
		w.UsedBytes += r.UsedBytes
		if !r.Used() {
			w.EmptyTBs++
			if r.IsRetx() {
				w.EmptyRetx++
			}
		}
	}
	return w
}

// Efficiency reports UsedBytes/TotalTBS in [0,1], or 1 when nothing was
// granted.
func (w Waste) Efficiency() float64 {
	if w.TotalTBS == 0 {
		return 1
	}
	return float64(w.UsedBytes) / float64(w.TotalTBS)
}
