package rtp

// Packetizer splits encoded media units (video frames, audio samples) into
// RTP packets, assigning sequence numbers, timestamps and the extensions
// the Athena pipeline relies on. One Packetizer serves one SSRC.
type Packetizer struct {
	SSRC        uint32
	PayloadType uint8
	ClockRate   uint32 // RTP timestamp units per second (90000 video, 48000 audio)
	MTUPayload  int    // max media payload bytes per packet

	// AttachMeta, when true, adds the §5.2 media-metadata extension to the
	// first packet of every unit.
	AttachMeta bool
	Meta       MediaMeta

	seq    uint16
	nextID uint64
}

// NewPacketizer constructs a packetizer with an initial sequence number of
// zero. mtuPayload bounds the media bytes per packet (typical VCA packets
// are ~1200 B on the wire).
func NewPacketizer(ssrc uint32, pt uint8, clockRate uint32, mtuPayload int) *Packetizer {
	if mtuPayload <= 0 {
		mtuPayload = 1160
	}
	return &Packetizer{SSRC: ssrc, PayloadType: pt, ClockRate: clockRate, MTUPayload: mtuPayload}
}

// Unit describes one encoded media unit to packetize.
type Unit struct {
	Bytes      int      // encoded size
	PTSSeconds float64  // presentation time in seconds since stream start
	SVC        SVCLayer // temporal layer (or LayerAudio)
}

// Packetize splits the unit into RTP packets. All packets share a
// timestamp; the last carries the marker bit (end of frame), matching how
// the paper's correlator groups packets into frames.
func (z *Packetizer) Packetize(u Unit) []*Packet {
	if u.Bytes <= 0 {
		return nil
	}
	z.nextID++
	frameID := z.nextID
	ts := uint32(u.PTSSeconds * float64(z.ClockRate))
	n := (u.Bytes + z.MTUPayload - 1) / z.MTUPayload
	pkts := make([]*Packet, 0, n)
	remaining := u.Bytes
	for i := 0; i < n; i++ {
		size := z.MTUPayload
		if remaining < size {
			size = remaining
		}
		remaining -= size
		p := &Packet{
			PayloadType: z.PayloadType,
			Seq:         z.seq,
			Timestamp:   ts,
			SSRC:        z.SSRC,
			Marker:      i == n-1,
			SVC:         u.SVC,
			HasSVC:      true,
			PayloadLen:  size,
			FrameID:     frameID,
		}
		if z.AttachMeta && i == 0 {
			p.Meta = z.Meta
			p.HasMeta = true
		}
		z.seq++
		pkts = append(pkts, p)
	}
	return pkts
}
