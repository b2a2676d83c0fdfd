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
// largest first, so a Record is 48 bytes with one byte of padding; a
// cell run keeps one per packet per capture point.
type Record struct {
	PacketID  uint64
	Size      units.ByteCount
	LocalTime time.Duration
	Flow      uint32
	Seq       uint32
	// RTPTime/RTPSeq/SSRC/Marker are copied out of the RTP header when the
	// payload is RTP, because a real pcap parser would recover them.
	RTPTime uint32
	SSRC    uint32
	RTPSeq  uint16
	Point   Point
	Kind    Kind
	ECN     ECN
	Marker  bool
	// MediaMeta is true when the packet carried the §5.2 media-metadata
	// header extension.
	MediaMeta bool
}

// RTPInfo is implemented by payloads that expose RTP header fields to the
// capture point (avoids an import cycle with package rtp).
type RTPInfo interface {
	RTPHeaderInfo() (ssrc uint32, seq uint16, ts uint32, marker bool, mediaMeta bool)
}

// Capture is a passive tap at one point, stamping records with the host's
// local clock.
type Capture struct {
	Point   Point
	Clock   *clock.HostClock
	Records []Record
	// Next receives the packet after recording; nil means the capture is a
	// sink tap inserted mid-chain by Tap.
	Next Handler

	now func() time.Duration // true simulation time source
}

// NewCapture creates a capture at point pt using hc for timestamps and now
// for true time. Packets are forwarded to next after recording.
func NewCapture(pt Point, hc *clock.HostClock, now func() time.Duration, next Handler) *Capture {
	if next == nil {
		next = Discard
	}
	return &Capture{Point: pt, Clock: hc, Next: next, now: now}
}

// Handle records the packet and forwards it.
func (c *Capture) Handle(p *Packet) {
	r := Record{
		Point:     c.Point,
		PacketID:  p.ID,
		Kind:      p.Kind,
		Flow:      p.Flow,
		Seq:       p.Seq,
		Size:      p.Size,
		LocalTime: c.Clock.Read(c.now()),
		ECN:       p.ECN,
	}
	if info, ok := p.Payload.(RTPInfo); ok {
		r.SSRC, r.RTPSeq, r.RTPTime, r.Marker, r.MediaMeta = rtpInfo(info)
	}
	c.Records = append(c.Records, r)
	// Ground-truth bookkeeping for the correlator's scoring harness.
	switch c.Point {
	case PointCore:
		p.GroundTruth.CoreAt = c.now()
	case PointReceiver:
		p.GroundTruth.ReceiverAt = c.now()
	}
	c.Next.Handle(p)
}

func rtpInfo(i RTPInfo) (ssrc uint32, seq uint16, ts uint32, marker, mediaMeta bool) {
	ssrc, seq, ts, marker, mediaMeta = i.RTPHeaderInfo()
	return
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
