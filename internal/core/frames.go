package core

import (
	"time"

	"athena/internal/packet"
)

// FrameView is the application-layer grouping of packets into one video
// frame or audio sample, recovered — as the paper does — from RTP header
// fields alone: packets sharing (SSRC, RTP timestamp) form a unit, and
// the marker bit closes it.
type FrameView struct {
	SSRC    uint32
	RTPTime uint32
	Kind    packet.Kind
	Packets int

	FirstSent, LastSent time.Duration
	FirstCore, LastCore time.Duration
	SeenCore            bool

	// SpreadSender is the delay spread at the sender (time between first
	// and last packet of the unit leaving the application) and SpreadCore
	// the same at the mobile core — Fig 5's two distributions.
	SpreadSender time.Duration
	SpreadCore   time.Duration

	// FrameDelay is first-packet send to last-packet core arrival: the
	// §5.2 metric ("a frame cannot be rendered until all of its packets
	// have been received").
	FrameDelay time.Duration
}

// frameKey identifies one application-layer unit (frame/sample).
type frameKey struct {
	ssrc uint32
	ts   uint32
}

// groupFrames buckets packet views by (SSRC, RTPTime) into frames.
func groupFrames(pkts []PacketView) []FrameView {
	idx := make(map[frameKey]int, len(pkts)/3+1)
	var frames []FrameView
	for _, v := range pkts {
		if v.Kind != packet.KindVideo && v.Kind != packet.KindAudio {
			continue
		}
		k := frameKey{v.SSRC, v.RTPTime}
		fi, ok := idx[k]
		if !ok {
			fi = len(frames)
			idx[k] = fi
			frames = append(frames, FrameView{
				SSRC: v.SSRC, RTPTime: v.RTPTime, Kind: v.Kind,
				FirstSent: v.SentAt, LastSent: v.SentAt,
				FirstCore: v.CoreAt, LastCore: v.CoreAt,
				SeenCore: v.SeenCore,
			})
		}
		f := &frames[fi]
		f.Packets++
		if v.SentAt < f.FirstSent {
			f.FirstSent = v.SentAt
		}
		if v.SentAt > f.LastSent {
			f.LastSent = v.SentAt
		}
		if v.SeenCore {
			if !f.SeenCore {
				f.FirstCore, f.LastCore = v.CoreAt, v.CoreAt
				f.SeenCore = true
			} else {
				if v.CoreAt < f.FirstCore {
					f.FirstCore = v.CoreAt
				}
				if v.CoreAt > f.LastCore {
					f.LastCore = v.CoreAt
				}
			}
		}
	}
	for i := range frames {
		f := &frames[i]
		f.SpreadSender = f.LastSent - f.FirstSent
		if f.SeenCore {
			f.SpreadCore = f.LastCore - f.FirstCore
			f.FrameDelay = f.LastCore - f.FirstSent
		}
	}
	return frames
}

// SpreadsMS extracts the Fig 5 series: sender-side and core-side delay
// spreads in milliseconds for units with at least one packet seen at the
// core.
func (r *Report) SpreadsMS() (sender, core []float64) {
	for _, f := range r.Frames {
		if !f.SeenCore {
			continue
		}
		sender = append(sender, float64(f.SpreadSender)/float64(time.Millisecond))
		core = append(core, float64(f.SpreadCore)/float64(time.Millisecond))
	}
	return sender, core
}

// ULDelaysMS extracts per-packet uplink one-way delays in ms by kind
// (Fig 4's audio-vs-video split).
func (r *Report) ULDelaysMS(kind packet.Kind) []float64 {
	var out []float64
	for _, v := range r.Packets {
		if v.Kind == kind && v.SeenCore {
			out = append(out, float64(v.ULDelay)/float64(time.Millisecond))
		}
	}
	return out
}

// FrameDelaysMS extracts frame-level delays (first send → last core
// arrival) in ms for video frames — the M1 scheduler-comparison metric.
func (r *Report) FrameDelaysMS() []float64 {
	var out []float64
	for _, f := range r.Frames {
		if f.Kind == packet.KindVideo && f.SeenCore {
			out = append(out, float64(f.FrameDelay)/float64(time.Millisecond))
		}
	}
	return out
}
