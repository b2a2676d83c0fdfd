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
	"slices"
)

// Frame is one uncompressed luma (grayscale) picture. Seq is the
// sequence stamp standing in for the paper's per-frame QR code.
type Frame struct {
	Seq  uint64
	W, H int
	Pix  []uint8 // row-major luma samples, len = W*H
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
//
// Frames are rendered lazily: Next only stamps a FrameRef, and the pixels
// are drawn when a scorer renders it. The noise cursor and the render
// scratch belong to the scorer, and a render reads only the Source's
// seed, which never changes: any number of scorers may render its frames
// at once.
type Source struct {
	W, H int
	seed int64
	seq  uint64 // the next frame Next issues
}

// NewSource creates a frame source with the given dimensions. Small frames
// (e.g. 64×48) keep per-frame SSIM cheap while preserving the
// bitrate→quality relationship.
func NewSource(w, h int, seed int64) *Source {
	return &Source{W: w, H: h, seed: seed}
}

// FrameRef names one frame of a Source without its pixels.
type FrameRef struct {
	Seq  uint64
	W, H int
	src  *Source
}

// Next issues the next frame in display order. It draws no noise and
// renders nothing.
func (s *Source) Next() FrameRef {
	f := FrameRef{Seq: s.seq, W: s.W, H: s.H, src: s}
	s.seq++
	return f
}

// scorer renders, decodes and scores frames. It is a cursor over the
// noise stream of the Source it last rendered from: a render walks the
// stream forward over the frames in between, so the bytes do not depend
// on which frames are rendered, nor in what order. A scorer belongs to
// one goroutine.
type scorer struct {
	// rng is positioned at the noise of frame cursor of src; nil until
	// the first render.
	src    *Source
	rng    *lfgStream
	cursor uint64

	// Render scratch reused across frames: the tables of the texture's
	// three sinusoids (col over x, row over y, diag over x+y).
	col, row, diag []float64

	// The scored frame rendered and decoded, and the generator each
	// decode reseeds; nil until the first score.
	pix, dec Frame
	decRNG   *rand.Rand
}

// score renders f, decodes it with quantization noise sigma and returns
// the SSIM of the decode against the render.
func (sc *scorer) score(f FrameRef, sigma float64) (float64, error) {
	sc.renderInto(&sc.pix, f)
	if sc.decRNG == nil {
		sc.decRNG = rand.New(rand.NewSource(0)) // reseeded per decode
	}
	decodeInto(&sc.dec, &sc.pix, sigma, sc.decRNG)
	return SSIM(&sc.pix, &sc.dec)
}

// renderInto renders frame f into dst, reusing dst.Pix when it is large
// enough.
//
// A sample is ((128 + 52·sin(0.21x+φ)) + 43·cos(0.17y−0.7φ)) +
// 16·sin(0.09(x+y)+0.3φ), plus noise, rounded — the float64 sum taken in
// exactly that order. Each sinusoid depends on one of x, y, x+y only, so
// a frame tabulates them (2(W+H)−1 libm calls rather than 3·W·H). Every
// product is wrapped in float64(), which forbids fusing it with the
// neighbouring add: the bytes are the same on every GOARCH, and
// TestSourceGoldenPixels pins them.
func (sc *scorer) renderInto(dst *Frame, f FrameRef) {
	dst.Seq, dst.W, dst.H = f.Seq, f.W, f.H
	dst.Pix = slices.Grow(dst.Pix[:0], f.W*f.H)[:f.W*f.H]
	if len(dst.Pix) == 0 {
		return
	}
	// A frame of another Source, or behind the cursor, replays the stream
	// from its seed.
	if sc.rng == nil || f.src != sc.src || f.Seq < sc.cursor {
		sc.src, sc.rng, sc.cursor = f.src, newLFGStream(f.src.seed), 0
	}
	sc.rng.skipNoise(int(f.Seq-sc.cursor) * len(dst.Pix))
	// A little static detail so the image is not band-limited; the noise
	// is parked in Pix and read back below.
	sc.rng.fillNoise(dst.Pix)
	sc.cursor = f.Seq + 1
	if len(sc.col) != f.W || len(sc.row) != f.H {
		sc.col = make([]float64, f.W)
		sc.row = make([]float64, f.H)
		sc.diag = make([]float64, f.W+f.H-1)
	}
	col, row, diag := sc.col, sc.row, sc.diag
	phase := float64(float64(f.Seq) * 0.13)
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
	for y, ry := range row {
		pix := dst.Pix[y*f.W:][:len(col)]
		dg := diag[y:][:len(col)]
		for x, cx := range col {
			pix[x] = clamp8(cx + ry + dg[x] + float64(int8(pix[x])))
		}
	}
}

// lfgStream is the stream of rand.NewSource(seed), drawn without an
// interface call per value. math/rand's source is an additive lagged
// Fibonacci generator, o[n] = o[n−607] + o[n−273] mod 2⁶⁴, and its
// compatibility promise freezes that stream; so once the first 607
// outputs come from the real source, the recurrence continues them
// exactly.
type lfgStream struct {
	// vec holds the last lfgLen terms of the recurrence: the next output
	// o[n] is vec[i] + vec[j] (o[n−607] + o[n−273], j = i+334 mod 607)
	// and overwrites vec[i].
	vec [lfgLen]uint64
	i   int
}

const (
	lfgLen = 607
	lfgTap = 273
)

// newLFGStream draws o[0..606] from the real source and solves the
// recurrence backwards for the 607 terms before o[0] that it maps onto
// them, so the stream starts at o[0]: o[n] = t[n] + o[n−273] fixes t[n]
// for n ≥ 273, and o[n] = t[n] + t[n+334] then fixes the rest.
func newLFGStream(seed int64) *lfgStream {
	src := rand.NewSource(seed).(rand.Source64)
	var o [lfgLen]uint64
	for n := range o {
		o[n] = src.Uint64()
	}
	g := &lfgStream{}
	for n := lfgTap; n < lfgLen; n++ {
		g.vec[n] = o[n] - o[n-lfgTap]
	}
	for n := 0; n < lfgTap; n++ {
		g.vec[n] = o[n] - g.vec[n+lfgLen-lfgTap]
	}
	return g
}

// Int63 is the stream's next value as rand.Source.Int63 returns it.
func (g *lfgStream) Int63() int64 {
	i := g.i
	j := i + lfgLen - lfgTap
	if j >= lfgLen {
		j -= lfgLen
	}
	x := g.vec[i] + g.vec[j]
	g.vec[i] = x
	if i++; i == lfgLen {
		i = 0
	}
	g.i = i
	return int64(x &^ (1 << 63))
}

// fillNoise fills dst with values uniform on [-5, 5], stored as int8 bit
// patterns: math/rand's Int31n(11) minus 5, each with the same rejection
// bound and from the same stream as rand.New(src).Intn(11). It is Int63
// inlined by hand and run in stretches where neither lag index wraps, so
// the loop body is a few loads, an add and a store.
func (g *lfgStream) fillNoise(dst []uint8) {
	const n = 11
	const max = (1 << 31) - 1 - (1<<31)%n
	i, k := g.i, 0
	for k < len(dst) {
		j := i + lfgLen - lfgTap
		if j >= lfgLen {
			j -= lfgLen
		}
		feed, tap := g.vec[i:], g.vec[j:]
		run := min(len(feed), len(tap))
		feed, tap = feed[:run], tap[:run]
		t := 0
		for ; t < run && k < len(dst); t++ {
			x := feed[t] + tap[t]
			feed[t] = x
			if v := uint32(x << 1 >> 33); v <= max {
				dst[k] = uint8(int8(v%n) - 5)
				k++
			}
		}
		if i += t; i == lfgLen {
			i = 0
		}
	}
	g.i = i
}

// skipNoise advances the stream past n noise values exactly as fillNoise
// would draw them, rejections included, and stores nothing. A stretch
// draws as many values as are still owed, then owes one more per value
// it rejected.
func (g *lfgStream) skipNoise(n int) {
	const max = (1 << 31) - 1 - (1<<31)%11
	i := g.i
	for n > 0 {
		j := i + lfgLen - lfgTap
		if j >= lfgLen {
			j -= lfgLen
		}
		feed, tap := g.vec[i:], g.vec[j:]
		run := min(len(feed), len(tap), n)
		feed, tap = feed[:run], tap[:run]
		for t := range feed {
			x := feed[t] + tap[t]
			feed[t] = x
			if uint32(x<<1>>33) > max {
				n++
			}
		}
		n -= run
		if i += run; i == lfgLen {
			i = 0
		}
	}
	g.i = i
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
