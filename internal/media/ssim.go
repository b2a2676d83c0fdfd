package media

import "errors"

// SSIM constants from Wang et al., "Image Quality Assessment: From Error
// Visibility to Structural Similarity", IEEE TIP 2004, for 8-bit images.
const (
	ssimK1 = 0.01
	ssimK2 = 0.03
	ssimL  = 255
)

// ssimWindow is the side of the square sliding window. The reference
// implementation uses an 11×11 Gaussian; the common fast variant uses an
// 8×8 uniform window, which we adopt (the paper's absolute SSIM values are
// not reproduction targets, only their ordering).
const ssimWindow = 8

// ssimStride moves the window 4 pixels at a time, the standard speedup.
const ssimStride = 4

// ErrSSIMMismatch reports incompatible frame geometry.
var ErrSSIMMismatch = errors.New("media: SSIM frames differ in size or are too small")

// ssimBlock holds the five sums SSIM needs over one ssimStride×ssimStride
// block of a frame pair: Σa, Σb, Σa², Σb², Σab.
type ssimBlock struct{ a, b, aa, bb, ab int64 }

// ssimStackBlocks is the widest block row SSIM keeps on the stack (frames
// up to 259 pixels wide); wider frames take their rows from the heap.
const ssimStackBlocks = 64

// SSIM computes the mean structural similarity between two frames of equal
// size. Result is in [-1, 1]; 1 means identical.
//
// The stride is half the window, so a window is 2×2 blocks of ssimStride²
// pixels, and each block row is summed once for the two window rows that
// overlap it. The sums are integers far below 2⁵³, so adding them in
// int64 and converting once gives exactly the float64 a pixel-by-pixel
// float accumulation does; TestSSIMPinned holds the bits.
func SSIM(a, b *Frame) (float64, error) {
	if a.W != b.W || a.H != b.H || a.W < ssimWindow || a.H < ssimWindow {
		return 0, ErrSSIMMismatch
	}
	c1 := (ssimK1 * ssimL) * (ssimK1 * ssimL)
	c2 := (ssimK2 * ssimL) * (ssimK2 * ssimL)

	// Windows start every ssimStride pixels and never cross the last full
	// block, so pixels past it are read by no window.
	nbx := a.W / ssimStride
	var stack [2][ssimStackBlocks]ssimBlock
	upper, lower := stack[0][:], stack[1][:]
	if nbx > ssimStackBlocks {
		upper, lower = make([]ssimBlock, nbx), make([]ssimBlock, nbx)
	}
	upper, lower = upper[:nbx], lower[:nbx]
	sumBlockRow(upper, a, b, 0)

	var sum float64
	var windows int
	for y := 0; y+ssimWindow <= a.H; y += ssimStride {
		sumBlockRow(lower, a, b, y+ssimStride)
		for bx := 0; bx+1 < nbx; bx++ {
			p, q, r, s := &upper[bx], &upper[bx+1], &lower[bx], &lower[bx+1]
			sa := float64(p.a + q.a + r.a + s.a)
			sb := float64(p.b + q.b + r.b + s.b)
			saa := float64(p.aa + q.aa + r.aa + s.aa)
			sbb := float64(p.bb + q.bb + r.bb + s.bb)
			sab := float64(p.ab + q.ab + r.ab + s.ab)
			// Every product is wrapped in float64() so no GOARCH fuses it
			// with the neighbouring add; so is each division by n, which
			// the compiler turns into a product with 1/n.
			n := float64(ssimWindow * ssimWindow)
			muA := float64(sa / n)
			muB := float64(sb / n)
			varA := float64(saa/n) - float64(muA*muA)
			varB := float64(sbb/n) - float64(muB*muB)
			cov := float64(sab/n) - float64(muA*muB)
			num := (float64(2*muA*muB) + c1) * (float64(2*cov) + c2)
			den := (float64(muA*muA) + float64(muB*muB) + c1) * (varA + varB + c2)
			sum += num / den
			windows++
		}
		upper, lower = lower, upper
	}
	if windows == 0 {
		return 0, ErrSSIMMismatch
	}
	return sum / float64(windows), nil
}

// sumBlockRow sums the row of blocks whose top pixel row is y into dst,
// one block per element.
func sumBlockRow(dst []ssimBlock, a, b *Frame, y int) {
	for bx := range dst {
		var s ssimBlock
		for j := range ssimStride {
			off := (y+j)*a.W + bx*ssimStride
			pa := a.Pix[off : off+ssimStride]
			pb := b.Pix[off : off+ssimStride]
			for i, v := range pa {
				va, vb := int64(v), int64(pb[i])
				s.a += va
				s.b += vb
				s.aa += va * va
				s.bb += vb * vb
				s.ab += va * vb
			}
		}
		dst[bx] = s
	}
}

// MustSSIM is SSIM for callers that already validated geometry.
func MustSSIM(a, b *Frame) float64 {
	v, err := SSIM(a, b)
	if err != nil {
		panic(err)
	}
	return v
}
