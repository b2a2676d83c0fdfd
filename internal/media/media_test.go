package media

import (
	"crypto/sha256"
	"encoding/hex"
	"math"
	"testing"
	"testing/quick"
	"time"

	"athena/internal/rtp"
	"athena/internal/units"
)

func TestSourceDeterministic(t *testing.T) {
	a := NewSource(32, 24, 7)
	b := NewSource(32, 24, 7)
	for i := 0; i < 5; i++ {
		fa, fb := a.Next(), b.Next()
		if fa.Seq != fb.Seq {
			t.Fatal("seq mismatch")
		}
		for j := range fa.Pix {
			if fa.Pix[j] != fb.Pix[j] {
				t.Fatalf("pixel mismatch at frame %d", i)
			}
		}
	}
}

// TestSourceGoldenPixels pins the synthetic camera's content: SHA-256
// over Pix of frames 0..99, recorded from the per-pixel-trig kernel this
// one replaced. Every SSIM figure and every registry digest that folds
// one rests on these bytes. 33×17 exercises W≠H and the diagonal table's
// length.
func TestSourceGoldenPixels(t *testing.T) {
	for _, tc := range []struct {
		w, h int
		seed int64
		want string
	}{
		{64, 48, 1, "3200c7b7f8687b35f75ccba7c795828c53ce26461370288ae4443b018be400b6"},
		{64, 48, 7001, "381a20f373ecc256c2699a847c5bf6de4ac6218cefd3e695ec4e9418b005e7b4"},
		{33, 17, 42, "2b3e43a23432edca02a03c1b7468ddc6c94b69d0690fe1d42044fbaef818fc53"},
	} {
		s := NewSource(tc.w, tc.h, tc.seed)
		h := sha256.New()
		for i := 0; i < 100; i++ {
			f := s.Next()
			if f.Seq != uint64(i) || f.W != tc.w || f.H != tc.h || len(f.Pix) != tc.w*tc.h {
				t.Fatalf("%dx%d seed %d frame %d: seq %d, %dx%d, %d samples",
					tc.w, tc.h, tc.seed, i, f.Seq, f.W, f.H, len(f.Pix))
			}
			h.Write(f.Pix)
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != tc.want {
			t.Errorf("%dx%d seed %d: pixel hash %s, want %s", tc.w, tc.h, tc.seed, got, tc.want)
		}
	}
}

func TestSourceFramesEvolve(t *testing.T) {
	s := NewSource(32, 24, 7)
	a, b := s.Next(), s.Next()
	if a.Seq+1 != b.Seq {
		t.Fatal("seq not incrementing")
	}
	diff := 0
	for i := range a.Pix {
		if a.Pix[i] != b.Pix[i] {
			diff++
		}
	}
	if diff == 0 {
		t.Fatal("consecutive frames identical")
	}
}

func TestFrameCloneIndependent(t *testing.T) {
	f := NewFrame(1, 4, 4)
	f.Pix[0] = 10
	g := f.Clone()
	g.Pix[0] = 20
	if f.Pix[0] != 10 {
		t.Fatal("clone aliases original")
	}
	if f.At(0, 0) != 10 {
		t.Fatal("At wrong")
	}
}

func TestClamp8(t *testing.T) {
	if clamp8(-5) != 0 || clamp8(300) != 255 || clamp8(128.4) != 128 {
		t.Fatal("clamp8 wrong")
	}
}

func TestSSIMIdentical(t *testing.T) {
	f := NewSource(64, 48, 1).Next()
	v, err := SSIM(f, f)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(v-1) > 1e-9 {
		t.Fatalf("SSIM(f,f) = %v, want 1", v)
	}
}

func TestSSIMDecreasesWithNoise(t *testing.T) {
	f := NewSource(64, 48, 1).Next()
	prev := 1.0
	for _, sigma := range []float64{5, 15, 40} {
		ef := &EncodedFrame{Seq: f.Seq, NoiseSigma: sigma, Source: f}
		v := MustSSIM(f, ef.Decode())
		if v >= prev {
			t.Fatalf("SSIM not decreasing: sigma=%v -> %v (prev %v)", sigma, v, prev)
		}
		prev = v
	}
}

func TestSSIMErrors(t *testing.T) {
	a := NewFrame(1, 64, 48)
	b := NewFrame(1, 32, 48)
	if _, err := SSIM(a, b); err != ErrSSIMMismatch {
		t.Fatal("size mismatch not detected")
	}
	tiny := NewFrame(1, 4, 4)
	if _, err := SSIM(tiny, tiny); err != ErrSSIMMismatch {
		t.Fatal("too-small frame not detected")
	}
}

func TestSSIMSymmetricProperty(t *testing.T) {
	src := NewSource(64, 48, 3)
	f := func(sigma8 uint8) bool {
		f1 := src.Next()
		ef := &EncodedFrame{Seq: f1.Seq, NoiseSigma: float64(sigma8) / 8, Source: f1}
		f2 := ef.Decode()
		a := MustSSIM(f1, f2)
		b := MustSSIM(f2, f1)
		return math.Abs(a-b) < 1e-12 && a <= 1+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestModeProperties(t *testing.T) {
	if Mode28FPS.FPS() != 28 || Mode28FPS.BaseFPS() != 14 {
		t.Fatal("Mode28FPS wrong")
	}
	if Mode14FPS.FPS() != 14 || Mode14FPS.BaseFPS() != 7 {
		t.Fatal("Mode14FPS wrong")
	}
	if Mode28FPS.Interval() <= 0 {
		t.Fatal("interval")
	}
}

func TestEncoderLayerCadence(t *testing.T) {
	src := NewSource(64, 48, 2)
	e := NewEncoder(Mode28FPS, units.Mbps, 1)
	layers := []rtp.SVCLayer{}
	for i := 0; i < 8; i++ {
		ef := e.Encode(src.Next(), time.Duration(i)*Mode28FPS.Interval())
		if ef == nil {
			t.Fatalf("frame %d skipped unexpectedly", i)
		}
		layers = append(layers, ef.Layer)
	}
	for i, l := range layers {
		want := rtp.LayerBase
		if i%2 == 1 {
			want = rtp.LayerHighFPSEnhancement
		}
		if l != want {
			t.Fatalf("frame %d layer %v, want %v", i, l, want)
		}
	}
}

func TestEncoderMode14UsesLowFPSEnhancement(t *testing.T) {
	src := NewSource(64, 48, 2)
	e := NewEncoder(Mode14FPS, units.Mbps, 1)
	e.Encode(src.Next(), 0) // base
	ef := e.Encode(src.Next(), Mode14FPS.Interval())
	if ef.Layer != rtp.LayerLowFPSEnhancement {
		t.Fatalf("layer = %v", ef.Layer)
	}
}

func TestEncoderTracksTargetRate(t *testing.T) {
	src := NewSource(64, 48, 2)
	for _, target := range []units.BitRate{300 * units.Kbps, 1000 * units.Kbps} {
		e := NewEncoder(Mode28FPS, target, 1)
		var total units.ByteCount
		n := 280 // 10 seconds
		for i := 0; i < n; i++ {
			ef := e.Encode(src.Next(), time.Duration(i)*Mode28FPS.Interval())
			total += ef.Bytes
		}
		got := units.RateOf(total, 10*time.Second)
		ratio := float64(got) / float64(target)
		if ratio < 0.9 || ratio > 1.15 {
			t.Errorf("target %v achieved %v (ratio %.2f)", target, got, ratio)
		}
	}
}

func TestEncoderBaseFramesLarger(t *testing.T) {
	src := NewSource(64, 48, 2)
	e := NewEncoder(Mode28FPS, units.Mbps, 1)
	var base, enh float64
	var nb, ne int
	for i := 0; i < 100; i++ {
		ef := e.Encode(src.Next(), 0)
		if ef.Layer == rtp.LayerBase {
			base += float64(ef.Bytes)
			nb++
		} else {
			enh += float64(ef.Bytes)
			ne++
		}
	}
	if base/float64(nb) <= enh/float64(ne) {
		t.Fatal("base frames should be larger than enhancement frames")
	}
}

func TestEncoderSkipFramesOnlySkipsEnhancement(t *testing.T) {
	src := NewSource(64, 48, 2)
	e := NewEncoder(Mode28FPS, units.Mbps, 1)
	e.SkipFrames(2)
	var got []*EncodedFrame
	for i := 0; i < 8; i++ {
		if ef := e.Encode(src.Next(), 0); ef != nil {
			got = append(got, ef)
		}
	}
	if len(got) != 6 {
		t.Fatalf("got %d frames, want 6 (2 skipped)", len(got))
	}
	for _, ef := range got[:2] {
		if ef.Layer != rtp.LayerBase {
			// First two surviving frames around skips must include bases.
			break
		}
	}
	// All skipped frames were enhancement: count bases = 4 of 8 inputs.
	bases := 0
	for _, ef := range got {
		if ef.Layer == rtp.LayerBase {
			bases++
		}
	}
	if bases != 4 {
		t.Fatalf("bases = %d, want 4 (base never skipped)", bases)
	}
}

func TestEncoderRateFloor(t *testing.T) {
	e := NewEncoder(Mode28FPS, units.Mbps, 1)
	e.SetTargetRate(1) // absurd
	if e.TargetRate() < 30*units.Kbps {
		t.Fatal("rate floor not applied")
	}
}

func TestEncoderQualityImprovesWithRate(t *testing.T) {
	src := NewSource(64, 48, 2)
	score := func(rate units.BitRate) float64 {
		e := NewEncoder(Mode28FPS, rate, 1)
		var sum float64
		n := 20
		for i := 0; i < n; i++ {
			ef := e.Encode(src.Next(), 0)
			sum += MustSSIM(ef.Source, ef.Decode())
		}
		return sum / float64(n)
	}
	low, high := score(150*units.Kbps), score(1500*units.Kbps)
	if high <= low {
		t.Fatalf("SSIM should improve with rate: low=%v high=%v", low, high)
	}
	if high < 0.8 || high > 0.999 {
		t.Errorf("high-rate SSIM %v out of plausible range", high)
	}
}

func TestAudioEncoder(t *testing.T) {
	e := NewAudioEncoder(40 * units.Kbps)
	s0 := e.Next(0)
	s1 := e.Next(AudioFrameInterval)
	if s0.Seq != 0 || s1.Seq != 1 {
		t.Fatal("seq")
	}
	if s0.Bytes != 100 { // 40kbps * 20ms / 8
		t.Fatalf("Bytes = %d, want 100", s0.Bytes)
	}
	if NewAudioEncoder(0).Rate <= 0 {
		t.Fatal("default rate")
	}
}

func TestJitterBufferOrdering(t *testing.T) {
	b := NewJitterBuffer(10*time.Millisecond, 100*time.Millisecond)
	mk := func(seq uint64, pts time.Duration) *EncodedFrame {
		return &EncodedFrame{Seq: seq, PTS: pts}
	}
	// Frames arriving out of order still release in PTS order.
	b.Push(mk(2, 66*time.Millisecond), 100*time.Millisecond)
	b.Push(mk(1, 33*time.Millisecond), 101*time.Millisecond)
	out := b.PopDue(10 * time.Second)
	if len(out) != 2 || out[0].Seq > out[1].Seq {
		t.Fatalf("release order wrong: %+v", out)
	}
}

func TestJitterBufferHoldsUntilRelease(t *testing.T) {
	b := NewJitterBuffer(20*time.Millisecond, 100*time.Millisecond)
	f := &EncodedFrame{Seq: 1, PTS: 0}
	rel := b.Push(f, 50*time.Millisecond)
	if rel < 50*time.Millisecond {
		t.Fatalf("release %v before arrival", rel)
	}
	if got := b.PopDue(rel - time.Millisecond); len(got) != 0 {
		t.Fatal("released early")
	}
	if got := b.PopDue(rel); len(got) != 1 {
		t.Fatal("not released on time")
	}
	if b.Depth() != 0 {
		t.Fatal("depth")
	}
}

func TestJitterBufferAdaptsToJitter(t *testing.T) {
	calm := NewJitterBuffer(5*time.Millisecond, 500*time.Millisecond)
	wild := NewJitterBuffer(5*time.Millisecond, 500*time.Millisecond)
	interval := 33 * time.Millisecond
	for i := 0; i < 300; i++ {
		pts := time.Duration(i) * interval
		calm.Push(&EncodedFrame{Seq: uint64(i), PTS: pts}, pts+10*time.Millisecond)
		jitter := time.Duration(i%5) * 12 * time.Millisecond
		wild.Push(&EncodedFrame{Seq: uint64(i), PTS: pts}, pts+10*time.Millisecond+jitter)
	}
	if wild.TargetDelay() <= calm.TargetDelay() {
		t.Fatalf("jittery stream should grow target: calm=%v wild=%v",
			calm.TargetDelay(), wild.TargetDelay())
	}
}

func TestJitterBufferLateFraction(t *testing.T) {
	b := NewJitterBuffer(0, 0)
	b.Push(&EncodedFrame{Seq: 0, PTS: 0}, 0)
	// Second frame arrives way late relative to timeline.
	b.Push(&EncodedFrame{Seq: 1, PTS: 33 * time.Millisecond}, 500*time.Millisecond)
	if b.LateFraction() <= 0 {
		t.Fatal("late fraction should be positive")
	}
	if _, ok := b.NextRelease(); !ok {
		t.Fatal("NextRelease")
	}
}

// Property: PopDue never returns a frame before its release time and
// always in nondecreasing release order.
func TestJitterBufferReleaseProperty(t *testing.T) {
	f := func(arrivalsMs []uint16) bool {
		b := NewJitterBuffer(10*time.Millisecond, 200*time.Millisecond)
		rels := map[uint64]time.Duration{}
		for i, a := range arrivalsMs {
			fr := &EncodedFrame{Seq: uint64(i), PTS: time.Duration(i) * 33 * time.Millisecond}
			rels[fr.Seq] = b.Push(fr, time.Duration(a)*time.Millisecond)
		}
		var now time.Duration
		prev := time.Duration(-1)
		for b.Depth() > 0 {
			now += 7 * time.Millisecond
			for _, fr := range b.PopDue(now) {
				r := rels[fr.Seq]
				if r > now || r < prev {
					return false
				}
				prev = r
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestRendererJitterAndStalls(t *testing.T) {
	r := NewRenderer(1000000) // avoid SSIM cost; frames lack Source
	interval := 33 * time.Millisecond
	now := time.Duration(0)
	for i := 0; i < 10; i++ {
		f := &EncodedFrame{Seq: uint64(i), PTS: time.Duration(i) * interval}
		r.Display(f, now)
		now += interval
	}
	// Perfect cadence: zero jitter, zero stalls.
	for _, j := range r.FrameJitterMS {
		if j != 0 {
			t.Fatalf("jitter = %v, want 0", j)
		}
	}
	if r.Stalls != 0 {
		t.Fatal("stalls on perfect stream")
	}
	// Now a big gap.
	f := &EncodedFrame{Seq: 99, PTS: 10 * interval}
	r.Display(f, now+time.Second)
	if r.Stalls != 1 {
		t.Fatalf("Stalls = %d, want 1", r.Stalls)
	}
}

func TestRendererFrameRates(t *testing.T) {
	r := NewRenderer(1000000)
	// 30 frames in 1 second, then 10 in the next.
	now := time.Duration(0)
	for i := 0; i < 30; i++ {
		r.Display(&EncodedFrame{Seq: uint64(i), PTS: now}, now)
		now += time.Second / 30
	}
	for i := 0; i < 10; i++ {
		r.Display(&EncodedFrame{Seq: uint64(100 + i), PTS: now}, now)
		now += time.Second / 10
	}
	rates := r.FrameRates()
	if len(rates) < 2 {
		t.Fatalf("rates = %v", rates)
	}
	if rates[0] < 25 || rates[0] > 31 {
		t.Errorf("first-second rate = %v", rates[0])
	}
	if rates[1] > 15 {
		t.Errorf("second-second rate = %v", rates[1])
	}
}

func TestRendererSSIMScoring(t *testing.T) {
	src := NewSource(64, 48, 9)
	e := NewEncoder(Mode28FPS, units.Mbps, 1)
	r := NewRenderer(1)
	var want []float64
	for i := 0; i < 4; i++ {
		ef := e.Encode(src.Next(), 0)
		r.Display(ef, time.Duration(i)*33*time.Millisecond)
		want = append(want, MustSSIM(ef.Source, ef.Decode()))
	}
	if len(r.SSIMs) != 4 {
		t.Fatalf("SSIMs = %d", len(r.SSIMs))
	}
	for i, v := range r.SSIMs {
		if v <= 0 || v > 1 {
			t.Fatalf("SSIM out of range: %v", v)
		}
		// The renderer's reused scratch frame and reseeded generator must
		// score exactly what a fresh Decode does.
		if v != want[i] {
			t.Fatalf("frame %d: renderer SSIM %v, fresh decode %v", i, v, want[i])
		}
	}
}

func TestScreenSamplerFreezes(t *testing.T) {
	r := NewRenderer(1000000)
	var s ScreenSampler
	now := time.Duration(0)
	// Frame 0 displayed, sampled for 500ms (freeze), then frame 1.
	r.Display(&EncodedFrame{Seq: 0, PTS: 0}, now)
	for i := 0; i < 35; i++ { // 35 samples at 70fps = 500ms
		s.Sample(r, now)
		now += ScreenSampleInterval
	}
	r.Display(&EncodedFrame{Seq: 1, PTS: 33 * time.Millisecond}, now)
	for i := 0; i < 3; i++ {
		s.Sample(r, now)
		now += ScreenSampleInterval
	}
	rep := s.Freezes(100 * time.Millisecond)
	if rep.Frames != 2 {
		t.Fatalf("Frames = %d, want 2", rep.Frames)
	}
	if rep.Freezes != 1 {
		t.Fatalf("Freezes = %d, want 1", rep.Freezes)
	}
	if rep.LongestDwel < 400*time.Millisecond {
		t.Fatalf("LongestDwel = %v", rep.LongestDwel)
	}
}

func TestScreenSamplerInvalidBeforeFirstFrame(t *testing.T) {
	r := NewRenderer(1)
	var s ScreenSampler
	s.Sample(r, 0)
	if s.Samples[0].Valid {
		t.Fatal("sample before first display should be invalid")
	}
	rep := s.Freezes(time.Millisecond)
	if rep.Frames != 0 {
		t.Fatal("no frames expected")
	}
}

func TestPSNRIdentical(t *testing.T) {
	f := NewSource(64, 48, 1).Next()
	v, err := PSNR(f, f)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(v, 1) {
		t.Fatalf("PSNR(f,f) = %v, want +Inf", v)
	}
}

func TestPSNRDecreasesWithNoise(t *testing.T) {
	f := NewSource(64, 48, 1).Next()
	prev := math.Inf(1)
	for _, sigma := range []float64{3, 10, 30} {
		ef := &EncodedFrame{Seq: f.Seq, NoiseSigma: sigma, Source: f}
		v, err := PSNR(f, ef.Decode())
		if err != nil {
			t.Fatal(err)
		}
		if v >= prev {
			t.Fatalf("PSNR not decreasing at sigma=%v: %v >= %v", sigma, v, prev)
		}
		if v < 10 || v > 60 {
			t.Fatalf("PSNR %v out of plausible dB range", v)
		}
		prev = v
	}
}

func TestPSNRMismatch(t *testing.T) {
	a, b := NewFrame(1, 8, 8), NewFrame(1, 4, 4)
	if _, err := PSNR(a, b); err == nil {
		t.Fatal("size mismatch accepted")
	}
}

func TestPSNRTracksSSIM(t *testing.T) {
	// Both metrics must agree on ordering across rates.
	src := NewSource(64, 48, 5)
	f := src.Next()
	low := &EncodedFrame{Seq: f.Seq, NoiseSigma: 25, Source: f}
	high := &EncodedFrame{Seq: f.Seq, NoiseSigma: 6, Source: f}
	pl, _ := PSNR(f, low.Decode())
	ph, _ := PSNR(f, high.Decode())
	sl := MustSSIM(f, low.Decode())
	sh := MustSSIM(f, high.Decode())
	if (ph > pl) != (sh > sl) {
		t.Fatalf("metric ordering disagrees: psnr %v/%v ssim %v/%v", ph, pl, sh, sl)
	}
}

func TestAudioPlayout(t *testing.T) {
	p := NewAudioPlayout(60 * time.Millisecond)
	// On-time sample.
	if !p.OnArrival(0, 30*time.Millisecond) {
		t.Fatal("on-time sample concealed")
	}
	// Exactly at the deadline still plays.
	if !p.OnArrival(20*time.Millisecond, 80*time.Millisecond) {
		t.Fatal("deadline sample concealed")
	}
	// Late sample concealed.
	if p.OnArrival(40*time.Millisecond, 101*time.Millisecond) {
		t.Fatal("late sample played")
	}
	if p.Played != 2 || p.Concealed != 1 {
		t.Fatalf("counts: %d/%d", p.Played, p.Concealed)
	}
	if r := p.ConcealmentRate(); math.Abs(r-1.0/3) > 1e-9 {
		t.Fatalf("rate = %v", r)
	}
	if NewAudioPlayout(0).Delay != 60*time.Millisecond {
		t.Fatal("default delay")
	}
	var empty AudioPlayout
	if empty.ConcealmentRate() != 0 {
		t.Fatal("empty rate")
	}
}
