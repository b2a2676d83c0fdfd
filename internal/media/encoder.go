package media

import (
	"math"
	"math/rand"
	"time"

	"athena/internal/rtp"
	"athena/internal/units"
)

// Mode selects the temporal-SVC configuration the paper observed in Zoom:
// a base layer at 14 fps plus a high-FPS enhancement layer reaching 28 fps,
// or a base layer at 7 fps plus a low-FPS enhancement layer reaching 14 fps.
type Mode uint8

// Temporal modes.
const (
	Mode28FPS Mode = iota // base 14 fps + High-FPS enhancement = 28 fps
	Mode14FPS             // base 7 fps + Low-FPS enhancement = 14 fps
)

// FPS reports the full frame rate of the mode.
func (m Mode) FPS() int {
	if m == Mode14FPS {
		return 14
	}
	return 28
}

// BaseFPS reports the base-layer frame rate of the mode.
func (m Mode) BaseFPS() int { return m.FPS() / 2 }

// Interval reports the frame period of the mode.
func (m Mode) Interval() time.Duration {
	return time.Duration(float64(time.Second) / float64(m.FPS()))
}

// EncodedFrame is the encoder's output for one video frame.
type EncodedFrame struct {
	Seq        uint64 // source frame sequence (QR-code stand-in)
	PTS        time.Duration
	Layer      rtp.SVCLayer
	Bytes      units.ByteCount
	NoiseSigma float64 // quantization-distortion model parameter
	// Source names the pristine frame, so the receiver can render,
	// reconstruct and score it (the paper compares each received frame
	// with the corresponding sent frame).
	Source FrameRef
}

// Encoder models a Zoom-like SVC video encoder: it consumes camera frames,
// assigns temporal layers, sizes each P-frame to track the target bitrate,
// and records the distortion the chosen rate implies.
//
// VCAs "typically do not use I-frames but rather transmit all video as a
// series of P-frames" (§5.2); frame sizes therefore vary only mildly, with
// base-layer frames (referenced by others) somewhat larger.
type Encoder struct {
	mode       Mode
	target     units.BitRate
	rng        *rand.Rand
	frameIdx   uint64
	skipBudget int // enhancement frames to skip (transient jitter response)
}

// Distortion model calibration: at refRate for a 64×48 stream the model
// yields sigmaRef, which lands SSIM in the high 0.8s on the synthetic
// source, matching the upper end of Fig 7d.
const (
	sigmaRef      = 11.0
	refRateKbps   = 1000.0
	distortionExp = 0.35
	minFrameBytes = 120
)

// NewEncoder creates an encoder at the given initial mode and rate.
func NewEncoder(mode Mode, target units.BitRate, seed int64) *Encoder {
	e := &Encoder{mode: mode, target: target, rng: rand.New(rand.NewSource(seed))}
	return e
}

// SetTargetRate updates the video bitrate target (from congestion control).
func (e *Encoder) SetTargetRate(r units.BitRate) {
	if r < 30*units.Kbps {
		r = 30 * units.Kbps
	}
	e.target = r
}

// TargetRate reports the current video bitrate target.
func (e *Encoder) TargetRate() units.BitRate { return e.target }

// SetMode switches the temporal-SVC configuration (the "more permanent"
// adaptation of Fig 8).
func (e *Encoder) SetMode(m Mode) { e.mode = m }

// Mode reports the current temporal configuration.
func (e *Encoder) Mode() Mode { return e.mode }

// SkipFrames requests that the next n enhancement-layer frames be dropped
// before encoding — the transient adaptation the paper observed reduce
// Zoom to ~20 fps under jitter.
func (e *Encoder) SkipFrames(n int) {
	if n > 0 {
		e.skipBudget += n
	}
}

// Encode consumes the next camera frame and returns its encoded form, or
// nil if the frame was skipped (enhancement skip or layer cadence). pts is
// the frame's capture time.
func (e *Encoder) Encode(src FrameRef, pts time.Duration) *EncodedFrame {
	idx := e.frameIdx
	e.frameIdx++

	// Temporal layering: even frames are base, odd frames enhancement.
	layer := rtp.LayerHighFPSEnhancement
	if e.mode == Mode14FPS {
		layer = rtp.LayerLowFPSEnhancement
	}
	isBase := idx%2 == 0
	if isBase {
		layer = rtp.LayerBase
	} else if e.skipBudget > 0 {
		e.skipBudget--
		return nil
	}

	fps := float64(e.mode.FPS())
	meanBytes := float64(e.target) / 8 / fps
	// Base frames carry more bits (they are reference frames); the pair
	// averages to the target.
	factor := 0.7
	if isBase {
		factor = 1.3
	}
	// Mild content-driven size variation (±10%). Here and below, float64()
	// around a product keeps arm64 from fusing it with the add; Float64
	// is itself a product (Int63 scaled by 2⁻⁶³) once inlined.
	factor *= 1 + float64((float64(e.rng.Float64())-0.5)*0.2)
	size := meanBytes * factor
	if size < minFrameBytes {
		size = minFrameBytes
	}

	// Distortion: bits/pixel relative to the calibration point.
	pixels := float64(src.W * src.H)
	bpp := size * 8 / pixels
	// refBPP is the bits-per-pixel at which NoiseSigma equals sigmaRef;
	// distortion scales as (refBPP/bpp)^distortionExp.
	refBPP := refRateKbps * 1000 / 8 / fps * 8 / pixels // bytes→bits cancel; keep explicit
	sigma := sigmaRef * math.Pow(refBPP/bpp, distortionExp)

	return &EncodedFrame{
		Seq:        src.Seq,
		PTS:        pts,
		Layer:      layer,
		Bytes:      units.ByteCount(size),
		NoiseSigma: sigma,
		Source:     src,
	}
}

// Decode reconstructs the frame the receiver would display: the source
// content distorted by the encoder's quantization noise. The noise RNG is
// keyed by frame sequence so repeated decodes are deterministic.
func (ef *EncodedFrame) Decode() *Frame {
	var sc scorer
	var src Frame
	sc.renderInto(&src, ef.Source)
	out := &Frame{}
	decodeInto(out, &src, ef.NoiseSigma, rand.New(rand.NewSource(0)))
	return out
}

// decodeInto is Decode into caller-owned scratch, from src, the rendered
// source frame: out is overwritten (its Pix reused when large enough) and
// rng is reseeded from src.Seq, which yields the stream of a fresh
// generator with that seed.
func decodeInto(out, src *Frame, sigma float64, rng *rand.Rand) {
	out.Seq, out.W, out.H = src.Seq, src.W, src.H
	out.Pix = append(out.Pix[:0], src.Pix...)
	rng.Seed(int64(src.Seq)*2654435761 + 17)
	for i, p := range out.Pix {
		out.Pix[i] = clamp8(float64(p) + float64(rng.NormFloat64()*sigma))
	}
}
