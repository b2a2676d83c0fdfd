// Package rtp implements the subset of the Real-time Transport Protocol
// (RFC 3550) that Athena's measurement and mitigation pipeline needs:
// the header, the one-byte header-extension mechanism
// (RFC 8285), the SVC temporal-layer extension the paper observed Zoom
// using, the media-metadata extension proposed in §5.2 for application-
// aware RAN scheduling, and transport-wide congestion-control feedback.
//
// The simulator never serializes a packet, only sizes it: WireSize equals
// the length of the wire format (the tests' Marshal writes it), so every
// packet is sized as the bytes an on-path pcap would see.
package rtp

import "fmt"

// Version is the RTP protocol version (always 2).
const Version = 2

// HeaderSize is the fixed RTP header size without CSRCs or extensions.
const HeaderSize = 12

// Payload type values used by the simulated VCA (dynamic range 96-127).
const (
	PayloadTypeVideo = 98
	PayloadTypeAudio = 111
)

// Extension element IDs (one-byte RFC 8285 form).
const (
	ExtIDSVCLayer  = 1 // temporal SVC layer of this packet's frame
	ExtIDMediaMeta = 2 // §5.2 media metadata for app-aware scheduling
	ExtIDTWSeq     = 3 // transport-wide sequence number
)

// SVC temporal layer identifiers, matching the paper's Fig 8 legend.
type SVCLayer uint8

// Layers of the Zoom-like temporal scalability scheme: a base layer at 7
// or 14 fps plus an enhancement layer reaching 14 or 28 fps. Zoom uses a
// distinct identifier for the enhancement layer when the target rate is
// 14 fps ("Low-FPS Enhancement").
const (
	LayerBase SVCLayer = iota
	LayerLowFPSEnhancement
	LayerHighFPSEnhancement
	LayerAudio // audio is not SVC; the value tags audio packets uniformly
)

// String names the layer as in Fig 8.
func (l SVCLayer) String() string {
	switch l {
	case LayerBase:
		return "Base"
	case LayerLowFPSEnhancement:
		return "Low-FPS Enhanc."
	case LayerHighFPSEnhancement:
		return "High-FPS Enhanc."
	case LayerAudio:
		return "Audio"
	}
	return fmt.Sprintf("SVCLayer(%d)", uint8(l))
}

// MediaMeta is the §5.2 header extension: enough application-layer
// information for the RAN to issue grants exactly when media is generated.
type MediaMeta struct {
	Streams        uint8  // streams originating at this sender
	FrameRateFPS   uint8  // current video frame rate
	AudioRateHz    uint16 // audio sampling cadence (packets/s * 100)
	FrameSizeBytes uint32 // periodically updated current frame size estimate
}

// Packet is an RTP packet.
type Packet struct {
	PayloadType uint8
	Seq         uint16
	Timestamp   uint32
	SSRC        uint32
	Marker      bool

	// Extensions. HasSVC/HasMeta/HasTWSeq report presence.
	SVC      SVCLayer
	HasSVC   bool
	Meta     MediaMeta
	HasMeta  bool
	TWSeq    uint16
	HasTWSeq bool

	// PayloadLen is the media payload length in bytes; the simulator does
	// not materialize media bytes, only their length.
	PayloadLen int

	// FrameID ties the packet to its source frame or audio sample. It is
	// simulation metadata (not serialized); the correlator must recover
	// the grouping from Timestamp/Marker as the paper does.
	FrameID uint64
}

// RTPHeaderInfo implements packet.RTPInfo so capture points can copy
// the header fields the correlator reads, the way a pcap parser would.
func (p *Packet) RTPHeaderInfo() (ssrc, ts uint32, marker bool) {
	return p.SSRC, p.Timestamp, p.Marker
}

// WireSize reports the on-the-wire RTP size: header + extensions + payload.
func (p *Packet) WireSize() int {
	return HeaderSize + p.extWireSize() + p.PayloadLen
}

func (p *Packet) extWireSize() int {
	n := 0
	if p.HasSVC {
		n += 2 // id/len byte + 1 data byte
	}
	if p.HasMeta {
		n += 9 // id/len byte + 8 data bytes
	}
	if p.HasTWSeq {
		n += 3 // id/len byte + 2 data bytes
	}
	if n == 0 {
		return 0
	}
	// RFC 8285 one-byte header: 4-byte "defined by profile" + length word,
	// then elements padded to a 4-byte boundary.
	padded := (n + 3) &^ 3
	return 4 + padded
}
