package media

import (
	"math"
	"math/rand"
	"testing"
)

// ssimPair builds a seeded w×h frame pair: a noisy gradient and a copy
// with independent per-pixel distortion of up to ±amp, clipped to 8 bits.
func ssimPair(w, h int, seed int64, amp int) (a, b *Frame) {
	rng := rand.New(rand.NewSource(seed))
	a, b = blank(w, h), blank(w, h)
	for i := range a.Pix {
		v := (i%w)*3 + (i/w)*2 + rng.Intn(64)
		a.Pix[i] = uint8(min(v, 255))
		d := int(a.Pix[i]) + rng.Intn(2*amp+1) - amp
		b.Pix[i] = uint8(max(0, min(d, 255)))
	}
	return a, b
}

// TestSSIMPinned pins SSIM to the exact float64 bits it returned when
// each window sum was accumulated pixel by pixel in float64, for seeded
// frame pairs including sizes that are not multiples of the stride and
// widths beyond the stack-held block rows.
func TestSSIMPinned(t *testing.T) {
	for _, tc := range []struct {
		w, h int
		seed int64
		amp  int
		want uint64
	}{
		{64, 48, 1, 8, 0x3feefa97cbb72698},
		{64, 48, 2, 40, 0x3fe299fd8267399e},
		{33, 17, 3, 8, 0x3fef059c29c40a91},
		{8, 8, 4, 20, 0x3fec343dce2ce72a},
		{13, 10, 5, 3, 0x3fefdfc82402e314},
		{97, 61, 6, 12, 0x3fec3c3d1b3ff17e},
		{300, 22, 7, 25, 0x3fe1703387109183},
	} {
		a, b := ssimPair(tc.w, tc.h, tc.seed, tc.amp)
		got := MustSSIM(a, b)
		if bits := math.Float64bits(got); bits != tc.want {
			t.Errorf("%dx%d seed %d: SSIM %v (bits %#x), want bits %#x", tc.w, tc.h, tc.seed, got, bits, tc.want)
		}
	}
	// The synthetic camera against its own decode, as Renderer.SSIMs
	// scores it.
	src := NewSource(64, 48, 11)
	var sc scorer
	for i, want := range []uint64{0x3fef4dac087571ed, 0x3fec3431d77f34af, 0x3fe7d66a712aa9b6} {
		got, err := sc.score(src.Next(), 4+6*float64(i))
		if err != nil {
			t.Fatal(err)
		}
		if bits := math.Float64bits(got); bits != want {
			t.Errorf("camera frame %d: SSIM %v (bits %#x), want bits %#x", i, got, bits, want)
		}
	}
}

// SSIM's block rows live on the stack for frames as wide as the
// simulator's cameras, so scoring a displayed frame allocates nothing.
func TestSSIMAllocs(t *testing.T) {
	a, b := ssimPair(64, 48, 1, 8)
	if n := testing.AllocsPerRun(100, func() { MustSSIM(a, b) }); n != 0 {
		t.Fatalf("SSIM 64x48: %v allocs, want 0", n)
	}
}
