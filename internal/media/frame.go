// Package media models the application layer of the Athena testbed: the
// synthetic video the paper injects through a virtual camera (QR-annotated
// frames become sequence-stamped frames here), an SVC temporal-layer
// encoder with a bitrate→distortion model, Opus-like audio, the receiver's
// jitter buffer and renderer, a 70 fps screen sampler for stall detection,
// and full SSIM (Wang et al. 2004) for picture quality.
package media

import (
	"math"
	"math/rand"
)

// Frame is one uncompressed luma (grayscale) picture. Seq is the
// sequence stamp standing in for the paper's per-frame QR code.
type Frame struct {
	Seq  uint64
	W, H int
	Pix  []uint8 // row-major luma samples, len = W*H
}

// NewFrame allocates a black frame.
func NewFrame(seq uint64, w, h int) *Frame {
	return &Frame{Seq: seq, W: w, H: h, Pix: make([]uint8, w*h)}
}

// Clone deep-copies the frame.
func (f *Frame) Clone() *Frame {
	g := &Frame{Seq: f.Seq, W: f.W, H: f.H, Pix: make([]uint8, len(f.Pix))}
	copy(g.Pix, f.Pix)
	return g
}

// At returns the sample at (x, y). The slice index is bounds-checked, but
// only against len(Pix): an x outside [0, W) silently reads a neighbouring
// row.
func (f *Frame) At(x, y int) uint8 { return f.Pix[y*f.W+x] }

// Source generates deterministic synthetic video: a drifting sinusoidal
// texture plus mild per-frame detail, so consecutive frames differ a
// little (P-frame-friendly) and SSIM against a distorted copy is
// meaningful. The content is a stand-in for the paper's prerecorded talk
// video.
type Source struct {
	W, H int
	rng  rand.Source
	seq  uint64

	// Per-frame tables of the texture's three sinusoids, reused across
	// frames: col over x, row over y, diag over x+y.
	col, row, diag []float64
}

// NewSource creates a frame source with the given dimensions. Small frames
// (e.g. 64×48) keep per-frame SSIM cheap while preserving the
// bitrate→quality relationship.
func NewSource(w, h int, seed int64) *Source {
	return &Source{W: w, H: h, rng: rand.NewSource(seed)}
}

// Next produces the next frame in display order.
//
// A sample is ((128 + 52·sin(0.21x+φ)) + 43·cos(0.17y−0.7φ)) +
// 16·sin(0.09(x+y)+0.3φ), plus noise, rounded — the float64 sum taken in
// exactly that order. Each sinusoid depends on one of x, y, x+y only, so
// a frame tabulates them (2(W+H)−1 libm calls rather than 3·W·H). Every
// product is wrapped in float64(), which forbids fusing it with the
// neighbouring add: the bytes are the same on every GOARCH, and
// TestSourceGoldenPixels pins them.
func (s *Source) Next() *Frame {
	f := NewFrame(s.seq, s.W, s.H)
	s.seq++
	if len(f.Pix) == 0 {
		return f
	}
	if len(s.col) != s.W || len(s.row) != s.H {
		s.col = make([]float64, s.W)
		s.row = make([]float64, s.H)
		s.diag = make([]float64, s.W+s.H-1)
	}
	col, row, diag := s.col, s.row, s.diag
	phase := float64(f.Seq) * 0.13
	// Smoothly moving texture: two crossed sinusoids and a diagonal one.
	for x := range col {
		col[x] = 128 + float64(52*math.Sin(float64(float64(x)*0.21)+phase))
	}
	for y := range row {
		row[y] = float64(43 * math.Cos(float64(float64(y)*0.17)-float64(0.7*phase)))
	}
	for d := range diag {
		diag[d] = float64(16 * math.Sin(float64(float64(d)*0.09)+float64(0.3*phase)))
	}
	rng := s.rng
	for y, ry := range row {
		pix := f.Pix[y*s.W:][:len(col)]
		dg := diag[y:][:len(col)]
		for x, cx := range col {
			// A little static detail so the image is not band-limited.
			pix[x] = clamp8(cx + ry + dg[x] + float64(noise(rng)))
		}
	}
	return f
}

// noise draws uniformly from [-5, 5]: math/rand's Int31n(11) minus 5, taken
// straight from the source — same rejection bound, same stream as
// rand.New(src).Intn(11) — in a shape the compiler inlines into the pixel
// loop.
func noise(src rand.Source) int32 {
	const n = 11
	const max = (1 << 31) - 1 - (1<<31)%n
	for {
		if v := int32(src.Int63() >> 32); v <= max {
			return v%n - 5
		}
	}
}

func clamp8(v float64) uint8 {
	if v < 0 {
		return 0
	}
	if v > 255 {
		return 255
	}
	return uint8(v + 0.5)
}
