package packet

import (
	"time"

	"athena/internal/clock"
	"athena/internal/units"
)

// Point identifies a capture location from Fig 2 of the paper.
type Point uint8

// Capture points. PointSFU is written 3* in the paper because the SFU
// additionally applies application-layer processing.
const (
	PointSender   Point = 1
	PointCore     Point = 2
	PointSFU      Point = 3
	PointReceiver Point = 4
)

// String names the point as the paper labels it.
func (p Point) String() string {
	switch p {
	case PointSender:
		return "1-sender"
	case PointCore:
		return "2-core"
	case PointSFU:
		return "3*-sfu"
	case PointReceiver:
		return "4-receiver"
	}
	return "?"
}

// Record is one captured datagram observation: what a pcap at that host
// would contain. LocalTime is stamped with the capturing host's clock and
// therefore carries that host's offset and drift. Fields are ordered
// largest first, so a Record is 48 bytes; a cell run keeps one per packet
// per capture point.
type Record struct {
	// PacketID is the simulator's packet identity, which no pcap sees. It
	// stays in process, where a scorer joins a record to the TBs that
	// carried it (telemetry.TBRecord.PacketIDs); the wire form omits it.
	PacketID  uint64 `json:"-"`
	Size      units.ByteCount
	LocalTime time.Duration
	Flow      uint32
	Seq       uint32
	// RTPTime/SSRC/Marker are copied out of the RTP header when the
	// payload is RTP, because a real pcap parser would recover them.
	RTPTime uint32
	SSRC    uint32
	Kind    Kind
	ECN     ECN
	Marker  bool
}

// RTPInfo is implemented by payloads that expose RTP header fields to the
// capture point (avoids an import cycle with package rtp).
type RTPInfo interface {
	RTPHeaderInfo() (ssrc, ts uint32, marker bool)
}

// Capture is a passive tap, stamping records with the host's local
// clock.
type Capture struct {
	Clock   *clock.HostClock
	Records []Record
	// Next receives the packet after recording; nil means the capture is a
	// sink tap inserted mid-chain by Tap.
	Next Handler
	// Keep, if non-nil, selects the flows recorded: a packet of a flow it
	// rejects is forwarded unrecorded.
	Keep func(flow uint32) bool

	now func() time.Duration // true simulation time source
}

// NewCapture creates a capture using hc for timestamps and now for true
// time. Packets are forwarded to next after recording.
func NewCapture(hc *clock.HostClock, now func() time.Duration, next Handler) *Capture {
	if next == nil {
		next = Discard
	}
	return &Capture{Clock: hc, Next: next, now: now}
}

// Handle records the packet and forwards it.
func (c *Capture) Handle(p *Packet) {
	if c.Keep != nil && !c.Keep(p.Flow) {
		c.Next.Handle(p)
		return
	}
	r := Record{
		PacketID:  p.ID,
		Kind:      p.Kind,
		Flow:      p.Flow,
		Seq:       p.Seq,
		Size:      p.Size,
		LocalTime: c.Clock.Read(c.now()),
		ECN:       p.ECN,
	}
	if info, ok := p.Payload.(RTPInfo); ok {
		r.SSRC, r.RTPTime, r.Marker = info.RTPHeaderInfo()
	}
	if n := len(c.Records); n == cap(c.Records) {
		// A full log doubles. append grows a large slice by 1.25×, which
		// over a run allocates ~5× the log's final size and copies ~4×.
		// (slices.Grow would do, but under -race it allocates a second,
		// temporary slice of the same size.)
		grown := make([]Record, n, 2*n+1)
		copy(grown, c.Records)
		c.Records = grown
	}
	c.Records = append(c.Records, r)
	c.Next.Handle(p)
}

// IsSortedByTime reports whether records are already in non-decreasing
// LocalTime order. Capture taps append under a monotone clock, so their
// record slices normally are — callers use this to skip a copy and sort.
func IsSortedByTime(records []Record) bool {
	for i := 1; i < len(records); i++ {
		if records[i].LocalTime < records[i-1].LocalTime {
			return false
		}
	}
	return true
}
