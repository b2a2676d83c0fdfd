package apps

import (
	"testing"
	"time"

	"athena/internal/packet"
	"athena/internal/rtp"
	"athena/internal/sim"
	"athena/internal/units"
)

func TestGameServerPacesFramesAtRate(t *testing.T) {
	s := sim.New(1)
	var alloc packet.Alloc
	var pkts int
	var bytes units.ByteCount
	out := packet.HandlerFunc(func(p *packet.Packet) {
		pkts++
		bytes += p.Size
	})
	gs := NewGameServer(s, &alloc, GameConfig{FrameFlow: 7}, s.NewStream(), out)
	gs.Start(time.Second)
	s.RunUntil(time.Second)
	// 60 fps pacing inclusive of t=0 and t=1s ticks.
	if gs.FramesSent < 60 || gs.FramesSent > 61 {
		t.Fatalf("FramesSent = %d, want 60-61 at 60 fps", gs.FramesSent)
	}
	// Top rung is 8 Mbps: one second of frames ≈ 1 MB of payload (±15%
	// for per-frame jitter and header overhead).
	mb := float64(bytes) / 1e6
	if mb < 0.85 || mb > 1.25 {
		t.Fatalf("streamed %.2f MB in 1 s, want ≈1 MB at 8 Mbps", mb)
	}
	if pkts <= gs.FramesSent {
		t.Fatalf("8 Mbps frames must span multiple MTUs: %d packets for %d frames", pkts, gs.FramesSent)
	}
}

// The downlink reorders packets (per-packet HARQ), so the client detects
// frame completion from marker + contiguous count, not arrival order.
func TestGameClientAssemblesReorderedFrames(t *testing.T) {
	s := sim.New(2)
	var alloc packet.Alloc
	var frames [][]*packet.Packet
	var cur []*packet.Packet
	out := packet.HandlerFunc(func(p *packet.Packet) {
		cur = append(cur, p)
		if rp := p.Payload.(*rtp.Packet); rp.Marker {
			frames = append(frames, cur)
			cur = nil
		}
	})
	cfg := GameConfig{InputFlow: 1, FrameFlow: 7}
	gs := NewGameServer(s, &alloc, cfg, s.NewStream(), out)
	gc := NewGameClient(s, &alloc, cfg, packet.Discard)
	gs.Start(200 * time.Millisecond)
	s.RunUntil(200 * time.Millisecond)
	if len(frames) != gs.FramesSent {
		t.Fatalf("captured %d frames, server sent %d", len(frames), gs.FramesSent)
	}
	// Deliver every frame's packets in reverse order.
	for _, f := range frames {
		for i := len(f) - 1; i >= 0; i-- {
			gc.OnFrame(f[i])
		}
	}
	if gc.FramesDone != len(frames) {
		t.Fatalf("assembled %d of %d reversed frames", gc.FramesDone, len(frames))
	}
	if m := gc.Metrics(200 * time.Millisecond); m.PendingFrames != 0 {
		t.Fatalf("%d frames stuck in assembly", m.PendingFrames)
	}
}

func TestGameLadderAdapts(t *testing.T) {
	s := sim.New(3)
	var alloc packet.Alloc
	gs := NewGameServer(s, &alloc, GameConfig{InputFlow: 1, FrameFlow: 7}, s.NewStream(), packet.Discard)
	top := gs.RateMbps()

	input := func(late float64) *packet.Packet {
		p := alloc.New(packet.KindData, 1, 100, s.Now())
		p.Payload = &InputState{Seq: 1, LateFrac: late}
		return p
	}
	// Sustained late frames: one rung per hysteresis window, down to the
	// bottom of the ladder.
	for i := 0; i < 8; i++ {
		s.At(time.Duration(i)*ladderShiftWindow+ladderShiftWindow, func() { gs.OnInput(input(0.5)) })
	}
	s.RunUntil(9 * ladderShiftWindow)
	if gs.RateMbps() >= top {
		t.Fatalf("rate %v Mbps did not step down from %v under 50%% late frames", gs.RateMbps(), top)
	}
	if gs.RateMbps() != gs.Cfg.LadderMbps[0] {
		t.Fatalf("sustained lateness should bottom out the ladder, at %v Mbps", gs.RateMbps())
	}
	down := len(gs.RungTrace)
	if down == 0 {
		t.Fatal("no rung shifts recorded")
	}

	// Recovery: clean reports climb back to the top rung.
	for i := 0; i < 8; i++ {
		s.At(s.Now()+time.Duration(i)*ladderShiftWindow+ladderShiftWindow, func() { gs.OnInput(input(0)) })
	}
	s.RunUntil(s.Now() + 9*ladderShiftWindow)
	if gs.RateMbps() != top {
		t.Fatalf("rate %v Mbps did not recover to %v on clean reports", gs.RateMbps(), top)
	}
	if len(gs.RungTrace) <= down {
		t.Fatal("no upward shifts recorded")
	}
}

func TestGameLadderHysteresis(t *testing.T) {
	s := sim.New(4)
	var alloc packet.Alloc
	gs := NewGameServer(s, &alloc, GameConfig{InputFlow: 1, FrameFlow: 7}, s.NewStream(), packet.Discard)
	// A burst of bad reports inside one window must shift at most once.
	for i := 0; i < 50; i++ {
		s.At(ladderShiftWindow+time.Duration(i)*time.Millisecond, func() {
			p := alloc.New(packet.KindData, 1, 100, s.Now())
			p.Payload = &InputState{Seq: 1, LateFrac: 0.9}
			gs.OnInput(p)
		})
	}
	s.RunUntil(ladderShiftWindow + time.Second)
	if len(gs.RungTrace) != 1 {
		t.Fatalf("%d rung shifts inside one hysteresis window, want 1", len(gs.RungTrace))
	}
}

func TestGameClientInputCadence(t *testing.T) {
	s := sim.New(5)
	var alloc packet.Alloc
	var events []*packet.Packet
	out := packet.HandlerFunc(func(p *packet.Packet) { events = append(events, p) })
	gc := NewGameClient(s, &alloc, GameConfig{InputFlow: 9, FrameFlow: 7}, out)
	gc.Start(time.Second)
	s.RunUntil(time.Second)
	// 125 Hz inclusive of both endpoints.
	if len(events) < 125 || len(events) > 126 {
		t.Fatalf("%d input events in 1 s, want 125-126", len(events))
	}
	for i, p := range events {
		if p.Kind != packet.KindData || p.Flow != 9 {
			t.Fatalf("event %d: kind=%v flow=%d", i, p.Kind, p.Flow)
		}
		if p.Seq != uint32(i+1) {
			t.Fatalf("event %d: seq %d not contiguous", i, p.Seq)
		}
	}
}
