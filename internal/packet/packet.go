// Package packet models IP datagrams traversing the Athena testbed, and
// the passive capture points (Fig 2 of the paper: ① sender, ② mobile core,
// ③* SFU, ④ receiver) that record them.
//
// Packets are simulation objects, not byte buffers: Athena's network-layer
// view needs sizes, flow identity, timestamps, and ECN marks, while the
// application payload (an RTP packet) rides along as a typed reference so
// the correlator can later tie datagrams to frames without re-parsing.
package packet

import (
	"fmt"
	"time"

	"athena/internal/units"
)

// Kind classifies a datagram's traffic class, mirroring the flows in the
// paper's testbed.
type Kind uint8

// Traffic kinds.
const (
	KindUnknown Kind = iota
	KindVideo        // RTP video media
	KindAudio        // RTP audio media
	KindRTCP         // RTCP feedback (transport-wide CC reports)
	KindICMP         // ICMP echo probes (core -> SFU)
	KindCross        // competing cross-traffic from other UEs
	KindData         // generic sequenced application data (gaming input, bulk transfer)
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindVideo:
		return "video"
	case KindAudio:
		return "audio"
	case KindRTCP:
		return "rtcp"
	case KindICMP:
		return "icmp"
	case KindCross:
		return "cross"
	case KindData:
		return "data"
	}
	return "unknown"
}

// ECN is the two-bit ECN codepoint carried in the IP header.
type ECN uint8

// ECN codepoints (RFC 3168 / RFC 9331 names).
const (
	ECNNotECT ECN = 0 // not ECN-capable
	ECNECT1   ECN = 1 // L4S-capable transport
	ECNECT0   ECN = 2 // classic ECN-capable
	ECNCE     ECN = 3 // congestion experienced
)

// Packet is one simulated IP datagram.
type Packet struct {
	ID   uint64 // globally unique, assigned by the allocator
	Kind Kind
	Flow uint32 // flow identifier (SSRC for media, UE id for cross traffic)
	Size units.ByteCount

	// SentAt is the true simulation time the application handed the packet
	// to the network (ground truth; capture points record local clocks).
	SentAt time.Duration

	// Seq is the transport-wide sequence number used by congestion-control
	// feedback, assigned per-sender.
	Seq uint32

	ECN ECN

	// Payload carries a typed application object (e.g. *rtp.Packet).
	Payload any

	// GroundTruth accumulates per-hop facts the simulator knows exactly;
	// the correlator must *recover* these from captures and telemetry, and
	// the tests score it against this record.
	GroundTruth Truth
}

// Truth is the simulator's omniscient record of what happened to a packet
// on the 5G uplink. Which transport blocks carried it is not here: the
// RAN's telemetry records hold that (telemetry.TBRecord.PacketIDs).
type Truth struct {
	// UEQueueWait is time spent in the UE buffer before first transmission
	// opportunity (slot alignment + grant wait).
	UEQueueWait time.Duration
	// BSRWait is the portion of UEQueueWait attributable to waiting for a
	// BSR-requested grant.
	BSRWait time.Duration
	// HARQDelay is added delay from link-layer retransmissions.
	HARQDelay time.Duration
	// Dropped marks packets lost in a queue or abandoned by HARQ.
	Dropped bool
}

// String summarizes the packet for debugging.
func (p *Packet) String() string {
	return fmt.Sprintf("pkt(id=%d %s flow=%d seq=%d %v)", p.ID, p.Kind, p.Flow, p.Seq, p.Size)
}

// Alloc hands out unique packet IDs. The zero value is ready to use.
type Alloc struct {
	next uint64
}

// New creates a packet with the next free ID.
func (a *Alloc) New(kind Kind, flow uint32, size units.ByteCount, sentAt time.Duration) *Packet {
	a.next++
	return &Packet{ID: a.next, Kind: kind, Flow: flow, Size: size, SentAt: sentAt}
}

// Handler consumes packets; network elements chain Handlers together.
type Handler interface {
	Handle(p *Packet)
}

// HandlerFunc adapts a function to the Handler interface.
type HandlerFunc func(p *Packet)

// Handle calls f(p).
func (f HandlerFunc) Handle(p *Packet) { f(p) }

// Event calls f with the packet a simulator event carries as its
// argument. Bind the method value once, then schedule each packet's hop
// with sim.AtArg or AfterArg.
func (f HandlerFunc) Event(p any) { f(p.(*Packet)) }

// Discard is a Handler that drops everything (end of a chain).
var Discard Handler = HandlerFunc(func(*Packet) {})
