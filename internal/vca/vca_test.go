package vca

import (
	"testing"
	"time"

	"athena/internal/cc/gcc"
	"athena/internal/media"
	"athena/internal/packet"
	"athena/internal/sim"
	"athena/internal/units"
)

// pipe builds a delay path: sender -> delay -> receiver, and feedback
// straight back with a small fixed delay.
func pipe(s *sim.Simulator, delay func(p *packet.Packet) time.Duration, rcv func() *Receiver) packet.Handler {
	return packet.HandlerFunc(func(p *packet.Packet) {
		d := delay(p)
		s.After(d, func() { rcv().Handle(p) })
	})
}

// harness wires a sender and receiver over a parametric one-way delay.
type harness struct {
	s   *sim.Simulator
	snd *Sender
	rcv *Receiver
	g   *gcc.GCC
}

func newHarness(t *testing.T, delay func(p *packet.Packet) time.Duration) *harness {
	t.Helper()
	s := sim.New(1)
	var alloc packet.Alloc
	g := gcc.New(800*units.Kbps, 100*units.Kbps, 3*units.Mbps)
	h := &harness{s: s, g: g}
	fwd := pipe(s, delay, func() *Receiver { return h.rcv })
	h.snd = NewSender(s, &alloc, SenderConfig{
		VideoSSRC: 1, AudioSSRC: 2, Controller: g, Seed: 7,
	}, fwd)
	back := packet.HandlerFunc(func(p *packet.Packet) {
		s.After(5*time.Millisecond, func() { h.snd.HandleFeedback(p) })
	})
	h.rcv = NewReceiver(s, &alloc, 1, h.snd.FrameStore, back)
	h.snd.Start()
	h.rcv.Start()
	return h
}

func fixedDelay(d time.Duration) func(*packet.Packet) time.Duration {
	return func(*packet.Packet) time.Duration { return d }
}

func TestEndToEndFramesDisplayed(t *testing.T) {
	h := newHarness(t, fixedDelay(20*time.Millisecond))
	h.s.RunUntil(5 * time.Second)
	if h.rcv.Renderer.DisplayTimes.Len() < 50 {
		t.Fatalf("only %d frames displayed", h.rcv.Renderer.DisplayTimes.Len())
	}
	rates := h.rcv.Renderer.FrameRates()
	if len(rates) < 3 {
		t.Fatalf("rates = %v", rates)
	}
	// Steady state should be near 28 fps.
	last := rates[len(rates)-2]
	if last < 24 || last > 30 {
		t.Fatalf("steady frame rate = %v", last)
	}
	if len(h.rcv.VideoOWDMS) == 0 || len(h.rcv.AudioOWDMS) == 0 {
		t.Fatal("OWD records missing")
	}
	if len(h.rcv.Renderer.SSIMs()) == 0 {
		t.Fatal("no SSIM scored")
	}
}

func TestGCCRateGrowsOnCleanPath(t *testing.T) {
	h := newHarness(t, fixedDelay(15*time.Millisecond))
	h.s.RunUntil(20 * time.Second)
	if h.g.TargetRate() <= 800*units.Kbps {
		t.Fatalf("rate did not grow: %v", h.g.TargetRate())
	}
	if h.g.OveruseCount != 0 {
		t.Fatalf("phantom overuse on fixed-delay path: %d", h.g.OveruseCount)
	}
}

func TestAdaptationSwitchesTo14FPSOnHighDelay(t *testing.T) {
	var now func() time.Duration
	h := newHarness(t, func(p *packet.Packet) time.Duration {
		// After 5s, delay jumps above one second.
		if now() > 5*time.Second {
			return 1200 * time.Millisecond
		}
		return 20 * time.Millisecond
	})
	now = h.s.Now
	h.s.RunUntil(12 * time.Second)
	if h.snd.Encoder().Mode() != media.Mode14FPS {
		t.Fatalf("mode = %v, want Mode14FPS after sustained 1.2s delay", h.snd.Encoder().Mode())
	}
	if h.snd.Adapt().ModeChanges() == 0 {
		t.Fatal("no mode change recorded")
	}
}

func TestAdaptationRecoversTo28FPS(t *testing.T) {
	var now func() time.Duration
	h := newHarness(t, func(p *packet.Packet) time.Duration {
		if now() > 2*time.Second && now() < 4*time.Second {
			return 1200 * time.Millisecond
		}
		return 20 * time.Millisecond
	})
	now = h.s.Now
	h.s.RunUntil(40 * time.Second)
	if h.snd.Encoder().Mode() != media.Mode28FPS {
		t.Fatalf("mode = %v, should recover to 28 fps", h.snd.Encoder().Mode())
	}
	if h.snd.Adapt().ModeChanges() < 2 {
		t.Fatalf("expected down+up mode changes, got %d", h.snd.Adapt().ModeChanges())
	}
}

func TestJitterTriggersFrameSkipping(t *testing.T) {
	i := 0
	h := newHarness(t, func(p *packet.Packet) time.Duration {
		i++
		// Severe alternating jitter: 20ms or 150ms.
		if (i/20)%2 == 0 {
			return 20 * time.Millisecond
		}
		return 150 * time.Millisecond
	})
	h.s.RunUntil(10 * time.Second)
	if h.snd.SkipEvents == 0 {
		t.Fatal("high jitter did not trigger frame skipping")
	}
	// Displayed frame rate should dip below full 28fps.
	rates := h.rcv.Renderer.FrameRates()
	low := false
	for _, r := range rates[1:] {
		if r < 26 {
			low = true
		}
	}
	if !low {
		t.Fatalf("frame rate never dipped: %v", rates)
	}
}

func TestReceiverBitrateSeries(t *testing.T) {
	h := newHarness(t, fixedDelay(20*time.Millisecond))
	h.s.RunUntil(5 * time.Second)
	rates := h.rcv.ReceiveRates()
	if len(rates) < 4 {
		t.Fatalf("rates = %v", rates)
	}
	// Should be near the target (800kbps + overheads).
	if rates[2] < 300 || rates[2] > 3000 {
		t.Fatalf("bitrate sample = %v kbps", rates[2])
	}
}

func TestFrameJitterLowOnFixedPath(t *testing.T) {
	h := newHarness(t, fixedDelay(20*time.Millisecond))
	h.s.RunUntil(5 * time.Second)
	if len(h.rcv.FrameJitter) == 0 {
		t.Fatal("no frame jitter samples")
	}
	var max float64
	for _, j := range h.rcv.FrameJitter {
		if j > max {
			max = j
		}
	}
	if max > 5 {
		t.Fatalf("fixed path frame jitter up to %v ms", max)
	}
}

func TestLostFramesReaped(t *testing.T) {
	drop := 0
	h := newHarness(t, fixedDelay(20*time.Millisecond))
	// Wrap the sender output to drop every 17th video packet.
	orig := h.snd.out
	h.snd.out = packet.HandlerFunc(func(p *packet.Packet) {
		drop++
		if p.Kind == packet.KindVideo && drop%17 == 0 {
			return
		}
		orig.Handle(p)
	})
	h.s.RunUntil(10 * time.Second)
	if h.rcv.LostFrames == 0 {
		t.Fatal("dropped packets should strand frames")
	}
}

func TestSeqBefore(t *testing.T) {
	if !seqBefore(1, 2) || seqBefore(2, 1) {
		t.Fatal("basic order")
	}
	if !seqBefore(65535, 0) {
		t.Fatal("wraparound order")
	}
	if seqBefore(5, 5) {
		t.Fatal("equal")
	}
}

func TestAdaptationDirectly(t *testing.T) {
	a := NewAdaptation()
	// Low delay: no change.
	d := a.Observe(50*time.Millisecond, time.Second)
	if d.ModeChange || d.SkipFrames != 0 {
		t.Fatalf("unexpected action: %+v", d)
	}
	// Huge delay: immediate mode change.
	d = a.Observe(2*time.Second, 2*time.Second)
	if !d.ModeChange || d.Mode != media.Mode14FPS {
		t.Fatalf("no downgrade: %+v", d)
	}
	// Repeated high delay: no second change (already down).
	d = a.Observe(2*time.Second, 3*time.Second)
	if d.ModeChange {
		t.Fatal("duplicate mode change")
	}
}

func TestAdaptationJitterDecision(t *testing.T) {
	a := NewAdaptation()
	now := time.Duration(0)
	skipped := false
	for i := 0; i < 60; i++ {
		now += 20 * time.Millisecond
		owd := 30 * time.Millisecond
		if i%2 == 0 {
			owd = 130 * time.Millisecond // wild swings
		}
		if d := a.Observe(owd, now); d.SkipFrames > 0 {
			skipped = true
		}
	}
	if !skipped {
		t.Fatal("jitter never triggered skipping")
	}
	if a.Mode() != media.Mode28FPS {
		t.Fatal("jitter should not change mode")
	}
}

func TestAudioConcealmentUnderDelaySpikes(t *testing.T) {
	calm := newHarness(t, fixedDelay(20*time.Millisecond))
	calm.s.RunUntil(8 * time.Second)
	if calm.rcv.AudioPlay.Played == 0 {
		t.Fatal("no audio played")
	}
	if calm.rcv.AudioPlay.ConcealmentRate() > 0.01 {
		t.Fatalf("calm path concealment %v", calm.rcv.AudioPlay.ConcealmentRate())
	}
	// Delay spikes beyond the playout budget force concealment.
	i := 0
	spiky := newHarness(t, func(p *packet.Packet) time.Duration {
		i++
		if (i/50)%4 == 0 {
			return 150 * time.Millisecond
		}
		return 20 * time.Millisecond
	})
	spiky.s.RunUntil(8 * time.Second)
	if spiky.rcv.AudioPlay.Concealed == 0 {
		t.Fatal("150ms spikes should conceal some audio")
	}
	if spiky.rcv.AudioPlay.ConcealmentRate() <= calm.rcv.AudioPlay.ConcealmentRate() {
		t.Fatal("spiky path should conceal more")
	}
}
