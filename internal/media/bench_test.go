package media

import (
	"testing"
	"time"

	"athena/internal/units"
)

var sinkRef FrameRef

// BenchmarkSourceRender64x48 renders consecutive frames into one scratch
// frame: the cost of a scored frame whose predecessor was scored.
func BenchmarkSourceRender64x48(b *testing.B) {
	src := NewSource(64, 48, 1)
	var sc scorer
	var f Frame
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sc.renderInto(&f, src.Next())
	}
}

// BenchmarkSourceSkip64x48 is the walk a render makes over each unscored
// frame before it: one frame's noise drawn and dropped.
func BenchmarkSourceSkip64x48(b *testing.B) {
	g := newLFGStream(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.skipNoise(64 * 48)
	}
}

// TestSourceNextAllocs pins the lazy camera's costs: Next returns a value
// handle and allocates nothing, and once the trig tables exist, rendering
// into a scratch frame — a skip walk included — allocates nothing either.
func TestSourceNextAllocs(t *testing.T) {
	src := NewSource(64, 48, 1)
	if n := testing.AllocsPerRun(100, func() { sinkRef = src.Next() }); n != 0 {
		t.Fatalf("Next: %v allocs per frame, want 0", n)
	}
	var sc scorer
	var f Frame
	sc.renderInto(&f, src.Next())
	render := func() {
		for range 3 {
			src.Next()
		}
		sc.renderInto(&f, src.Next())
	}
	if n := testing.AllocsPerRun(100, render); n != 0 {
		t.Fatalf("render into scratch: %v allocs per frame, want 0", n)
	}
}

func BenchmarkSSIM64x48(b *testing.B) {
	src := NewSource(64, 48, 1)
	ref := src.Next()
	f := render(ref)
	ef := &EncodedFrame{Seq: f.Seq, NoiseSigma: 10, Source: ref}
	g := ef.Decode()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MustSSIM(f, g)
	}
}

func BenchmarkEncodeFrame(b *testing.B) {
	src := NewSource(64, 48, 1)
	e := NewEncoder(Mode28FPS, units.Mbps, 1)
	frames := make([]FrameRef, 64)
	for i := range frames {
		frames[i] = src.Next()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Encode(frames[i%len(frames)], time.Duration(i)*33*time.Millisecond)
	}
}

func BenchmarkJitterBuffer(b *testing.B) {
	jb := NewJitterBuffer(10*time.Millisecond, 200*time.Millisecond)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pts := time.Duration(i) * 33 * time.Millisecond
		jb.Push(&EncodedFrame{Seq: uint64(i), PTS: pts}, pts+15*time.Millisecond)
		jb.PopDue(pts + 40*time.Millisecond)
	}
}
