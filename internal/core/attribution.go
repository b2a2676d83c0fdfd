package core

import (
	"fmt"
	"strings"

	"athena/internal/packet"
	"athena/internal/stats"
	"athena/internal/telemetry"
)

// Cause labels a delay component in the root-cause breakdown.
type Cause string

// Root causes Athena attributes uplink and downstream delay to.
const (
	CauseQueueSlot Cause = "ue-queue+slot-alignment"
	CauseBSR       Cause = "bsr-scheduling-wait"
	CauseHARQ      Cause = "harq-retransmission"
	CauseWAN       Cause = "wan-propagation"
	CauseSFU       Cause = "sfu-app-processing"
)

// Dense indices of the fixed root-cause set, so per-packet components and
// running totals live in arrays — no hashing, no allocation on the emit
// path. The downstream causes come last: a packet never seen at the
// receiver has components only below IdxWAN.
const (
	IdxQueueSlot = iota
	IdxBSR
	IdxHARQ
	IdxWAN
	IdxSFU
	NumCauses
)

// Causes maps the dense indices back to the cause labels.
var Causes = [NumCauses]Cause{CauseQueueSlot, CauseBSR, CauseHARQ, CauseWAN, CauseSFU}

// Components is one packet's delay split by cause, in integer nanoseconds
// indexed by the Idx constants.
type Components [NumCauses]int64

// Components derives the packet's per-cause delay split. ok is false for
// a packet without uplink attribution (never seen at the core, or matched
// to no transport block). This is the only statement of the attribution
// admission rule: offline reports, live sessions and the fleet rollup all
// fold what it returns.
func (v *PacketView) Components() (c Components, ok bool) {
	if !v.SeenCore || len(v.TBIDs) == 0 {
		return c, false
	}
	c[IdxQueueSlot] = int64(v.QueueWait - v.BSRWait)
	c[IdxBSR] = int64(v.BSRWait)
	c[IdxHARQ] = int64(v.HARQDelay)
	if v.SeenRecv {
		c[IdxWAN] = int64(v.WANDelay - v.SFUDelay)
		c[IdxSFU] = int64(v.SFUDelay)
	}
	return c, true
}

// Attribution is an aggregate root-cause breakdown: a plain value whose
// totals are exact integer nanoseconds, so sums over any partition of the
// packets (per flow, per session, per cell) add back to the whole
// bit-for-bit. Milliseconds are derived at render.
type Attribution struct {
	// TotalNS sums each cause's contribution across packets.
	TotalNS [NumCauses]int64
	// Packets is the number of packets with uplink attribution.
	Packets int
	// RetxAffected counts packets whose delay includes HARQ inflation.
	RetxAffected int
	// BSRServed counts packets whose last bytes rode a requested grant.
	BSRServed int
}

// Attribute computes the aggregate breakdown.
func (r *Report) Attribute() Attribution {
	var a Attribution
	for i := range r.Packets {
		if c, ok := r.Packets[i].Components(); ok {
			a.Add(c)
		}
	}
	return a
}

// AttributeByFlow computes the breakdown separately per flow — the view
// a multi-UE topology needs to tell one participant's uplink pain from
// another's. Flows without any attributable packet are absent.
func (r *Report) AttributeByFlow() map[uint32]Attribution {
	out := make(map[uint32]Attribution)
	for i := range r.Packets {
		v := &r.Packets[i]
		if c, ok := v.Components(); ok {
			a := out[v.Flow]
			a.Add(c)
			out[v.Flow] = a
		}
	}
	return out
}

// Add folds one attributed packet's components into the breakdown.
func (a *Attribution) Add(c Components) {
	a.Packets++
	for i, ns := range c {
		a.TotalNS[i] += ns
	}
	if c[IdxHARQ] > 0 {
		a.RetxAffected++
	}
	if c[IdxBSR] > 0 {
		a.BSRServed++
	}
}

// Merge folds another breakdown into this one. Merging the breakdowns of
// any partition of the packets equals Add over all of them.
func (a *Attribution) Merge(b Attribution) {
	a.Packets += b.Packets
	a.RetxAffected += b.RetxAffected
	a.BSRServed += b.BSRServed
	for i, ns := range b.TotalNS {
		a.TotalNS[i] += ns
	}
}

// TotalMS reports a cause's summed contribution in milliseconds.
func (a Attribution) TotalMS(c Cause) float64 {
	for i, known := range Causes {
		if known == c {
			return float64(a.TotalNS[i]) / 1e6
		}
	}
	return 0
}

// MeanMS reports the average per-packet contribution of a cause.
func (a Attribution) MeanMS(c Cause) float64 {
	if a.Packets == 0 {
		return 0
	}
	return a.TotalMS(c) / float64(a.Packets)
}

// String renders a table of mean contributions.
func (a Attribution) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "root-cause attribution over %d packets (mean ms/packet):\n", a.Packets)
	for _, c := range Causes {
		fmt.Fprintf(&b, "  %-26s %8.3f\n", c, a.MeanMS(c))
	}
	fmt.Fprintf(&b, "  packets with HARQ inflation: %d; served by BSR grant: %d\n",
		a.RetxAffected, a.BSRServed)
	return b.String()
}

// MatchAccuracy scores the correlator's packet↔TB matching against the
// simulator's ground truth: the fraction of packets whose inferred TB set
// exactly equals the true one. The truth is the one the telemetry holds
// in process: the TBs whose successful attempt lists a packet in its
// PacketIDs, joined to the report's packets through the PacketID of the
// sender record with the same identity, extended as the one-shot feed
// extends the capture-ordered sender records. Packets no successful
// attempt carried, and sequence-less ones, are not scored.
func (r *Report) MatchAccuracy(sender []packet.Record, tbs []telemetry.TBRecord) float64 {
	truth := make(map[uint64][]uint64)
	for _, tb := range tbs {
		if !tb.Failed {
			for _, id := range tb.PacketIDs {
				truth[id] = append(truth[id], tb.TBID)
			}
		}
	}
	ids := make(map[uint64]uint64, len(sender))
	sent := make(map[uint32]uint32)
	for _, s := range sender {
		if sequenceLess(s.Kind) {
			continue
		}
		newest, ok := sent[s.Flow]
		if !ok {
			newest = s.Seq
		}
		ids[key(s.Flow, track(&newest, s.Seq))] = s.PacketID
		sent[s.Flow] = newest
	}
	total, correct := 0, 0
	for k, s := range r.byKey.m {
		id, ok := ids[k]
		if !ok || s.view == noView {
			continue
		}
		want := truth[id]
		if len(want) == 0 {
			continue
		}
		total++
		if equalIDs(r.Packets[s.view].TBIDs, want) {
			correct++
		}
	}
	if total == 0 {
		return 0
	}
	return float64(correct) / float64(total)
}

func equalIDs(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	seen := make(map[uint64]int, len(a))
	for _, x := range a {
		seen[x]++
	}
	for _, x := range b {
		if seen[x] == 0 {
			return false
		}
		seen[x]--
	}
	return true
}

// DelaySummary summarizes uplink delays by kind (diagnostics).
func (r *Report) DelaySummary(kind packet.Kind) stats.Summary {
	return stats.Summarize(r.ULDelaysMS(kind))
}
