package media

import (
	"testing"
	"time"

	"athena/internal/units"
)

var sinkFrame *Frame

func BenchmarkSourceNext64x48(b *testing.B) {
	src := NewSource(64, 48, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkFrame = src.Next()
	}
}

// TestSourceNextAllocs pins that the trig tables are Source-owned scratch:
// after the first call a frame costs its own two allocations (the Frame
// and its Pix) and nothing else.
func TestSourceNextAllocs(t *testing.T) {
	src := NewSource(64, 48, 1)
	src.Next()
	if n := testing.AllocsPerRun(100, func() { sinkFrame = src.Next() }); n != 2 {
		t.Fatalf("Next: %v allocs per frame, want 2", n)
	}
}

func BenchmarkSSIM64x48(b *testing.B) {
	src := NewSource(64, 48, 1)
	f := src.Next()
	ef := &EncodedFrame{Seq: f.Seq, NoiseSigma: 10, Source: f}
	g := ef.Decode()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MustSSIM(f, g)
	}
}

func BenchmarkEncodeFrame(b *testing.B) {
	src := NewSource(64, 48, 1)
	e := NewEncoder(Mode28FPS, units.Mbps, 1)
	frames := make([]*Frame, 64)
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
