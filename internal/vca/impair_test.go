package vca

import (
	"math/rand"
	"testing"
	"time"

	"athena/internal/cc/gcc"
	"athena/internal/packet"
	"athena/internal/sim"
	"athena/internal/units"
)

// impairer injects the network pathologies the VCA's reassembly path
// must survive: random loss, reordering (a packet held back briefly so
// later ones overtake it), and duplication. It sits between any two
// handlers; zero-valued probabilities disable each impairment, so the
// zero config is a transparent wire.
type impairer struct {
	// LossProb drops a packet outright.
	LossProb float64
	// ReorderProb holds a packet for ReorderDelay instead of forwarding
	// immediately.
	ReorderProb  float64
	ReorderDelay time.Duration
	// DupProb forwards a packet twice (the duplicate after DupDelay).
	DupProb  float64
	DupDelay time.Duration

	next packet.Handler
	sim  *sim.Simulator
	rng  *rand.Rand

	// Counters for assertions.
	Lost, Reordered, Duplicated int
}

// newImpairer creates an impairment stage forwarding to next.
func newImpairer(s *sim.Simulator, next packet.Handler) *impairer {
	return &impairer{
		next:         next,
		ReorderDelay: 10 * time.Millisecond,
		DupDelay:     time.Millisecond,
		sim:          s,
		rng:          s.NewStream(),
	}
}

// Handle applies the configured impairments.
func (im *impairer) Handle(p *packet.Packet) {
	if im.LossProb > 0 && im.rng.Float64() < im.LossProb {
		im.Lost++
		p.GroundTruth.Dropped = true
		return
	}
	if im.DupProb > 0 && im.rng.Float64() < im.DupProb {
		im.Duplicated++
		im.sim.After(im.DupDelay, func() { im.next.Handle(p) })
	}
	if im.ReorderProb > 0 && im.rng.Float64() < im.ReorderProb {
		im.Reordered++
		im.sim.After(im.ReorderDelay, func() { im.next.Handle(p) })
		return
	}
	im.next.Handle(p)
}

// packetLog is a handler that keeps every packet it is handed, in order.
type packetLog []*packet.Packet

func (l *packetLog) Handle(p *packet.Packet) { *l = append(*l, p) }

func TestImpairerTransparentWhenZero(t *testing.T) {
	s := sim.New(1)
	var k packetLog
	im := newImpairer(s, &k)
	var alloc packet.Alloc
	for i := 0; i < 100; i++ {
		im.Handle(alloc.New(packet.KindVideo, 1, 1200, 0))
	}
	s.Run()
	if len(k) != 100 || im.Lost+im.Reordered+im.Duplicated != 0 {
		t.Fatalf("zero config impaired traffic: %d delivered", len(k))
	}
	// FIFO preserved.
	for i := 1; i < len(k); i++ {
		if k[i].ID < k[i-1].ID {
			t.Fatal("reordered without configuration")
		}
	}
}

func TestImpairerLoss(t *testing.T) {
	s := sim.New(1)
	var k packetLog
	im := newImpairer(s, &k)
	im.LossProb = 0.3
	var alloc packet.Alloc
	for i := 0; i < 1000; i++ {
		im.Handle(alloc.New(packet.KindVideo, 1, 1200, 0))
	}
	s.Run()
	if im.Lost < 200 || im.Lost > 400 {
		t.Fatalf("Lost = %d, want ~300", im.Lost)
	}
	if len(k)+im.Lost != 1000 {
		t.Fatal("conservation violated")
	}
}

func TestImpairerReorders(t *testing.T) {
	s := sim.New(1)
	var k packetLog
	im := newImpairer(s, &k)
	im.ReorderProb = 0.2
	var alloc packet.Alloc
	for i := 0; i < 500; i++ {
		at := time.Duration(i) * time.Millisecond
		s.At(at, func() { im.Handle(alloc.New(packet.KindVideo, 1, 1200, s.Now())) })
	}
	s.Run()
	if im.Reordered == 0 {
		t.Fatal("nothing reordered")
	}
	inversions := 0
	for i := 1; i < len(k); i++ {
		if k[i].ID < k[i-1].ID {
			inversions++
		}
	}
	if inversions == 0 {
		t.Fatal("reordering produced no observable inversions")
	}
	if len(k) != 500 {
		t.Fatalf("reordering lost packets: %d", len(k))
	}
}

func TestImpairerDuplicates(t *testing.T) {
	s := sim.New(1)
	var k packetLog
	im := newImpairer(s, &k)
	im.DupProb = 0.5
	var alloc packet.Alloc
	for i := 0; i < 200; i++ {
		im.Handle(alloc.New(packet.KindVideo, 1, 1200, 0))
	}
	s.Run()
	if im.Duplicated == 0 {
		t.Fatal("nothing duplicated")
	}
	if len(k) != 200+im.Duplicated {
		t.Fatalf("delivered %d, want %d", len(k), 200+im.Duplicated)
	}
}

// impairHarness wires the sender and receiver through an impairer.
func impairHarness(t *testing.T, mut func(*impairer)) *harness {
	t.Helper()
	s := sim.New(1)
	var alloc packet.Alloc
	g := gcc.New(800*units.Kbps, 100*units.Kbps, 2*units.Mbps)
	h := &harness{s: s, g: g}
	im := newImpairer(s, packet.HandlerFunc(func(p *packet.Packet) {
		s.After(20*time.Millisecond, func() { h.rcv.Handle(p) })
	}))
	mut(im)
	h.snd = NewSender(s, &alloc, SenderConfig{
		VideoSSRC: 1, AudioSSRC: 2, Controller: g, Seed: 7,
	}, im)
	back := packet.HandlerFunc(func(p *packet.Packet) {
		s.After(5*time.Millisecond, func() { h.snd.HandleFeedback(p) })
	})
	h.rcv = NewReceiver(s, &alloc, 1, h.snd.FrameStore, back)
	h.snd.Start()
	h.rcv.Start()
	return h
}

func TestReceiverSurvivesReordering(t *testing.T) {
	h := impairHarness(t, func(im *impairer) {
		im.ReorderProb = 0.15
		im.ReorderDelay = 8 * time.Millisecond
	})
	h.s.RunUntil(10 * time.Second)
	// Reordered packets delay frames but do not lose them: nearly all
	// frames should still complete and display.
	displayed := h.rcv.Renderer.DisplayTimes.Len()
	if displayed < 200 {
		t.Fatalf("only %d frames displayed under reordering", displayed)
	}
	if h.rcv.LostFrames > 0 {
		t.Fatalf("reordering alone stranded %d frames", h.rcv.LostFrames)
	}
}

func TestReceiverDeduplicatesFrames(t *testing.T) {
	h := impairHarness(t, func(im *impairer) {
		im.DupProb = 0.3
	})
	h.s.RunUntil(10 * time.Second)
	// Displayed frame sequence must be strictly increasing: a duplicate
	// must never re-display a frame.
	vals := h.rcv.Renderer.DisplayTimes.Values()
	seen := map[float64]bool{}
	for _, v := range vals {
		if seen[v] {
			t.Fatalf("frame %v displayed twice", v)
		}
		seen[v] = true
	}
	if len(vals) < 200 {
		t.Fatalf("only %d frames displayed under duplication", len(vals))
	}
}

func TestReceiverUnderLossReportsAndRecovers(t *testing.T) {
	mild := impairHarness(t, func(im *impairer) {
		im.LossProb = 0.05
	})
	mild.s.RunUntil(15 * time.Second)
	if mild.rcv.LostFrames == 0 {
		t.Fatal("5% loss should strand some frames")
	}
	// GCC deliberately tolerates loss under 10% — the rate may sit at the
	// ceiling — but the call must go on.
	if mild.rcv.Renderer.DisplayTimes.Len() < 150 {
		t.Fatalf("only %d frames displayed", mild.rcv.Renderer.DisplayTimes.Len())
	}

	heavy := impairHarness(t, func(im *impairer) {
		im.LossProb = 0.15
	})
	heavy.s.RunUntil(15 * time.Second)
	// Above the 10% threshold the loss controller must engage.
	if heavy.g.TargetRate() >= 2*units.Mbps {
		t.Fatalf("rate at ceiling despite 15%% loss: %v", heavy.g.TargetRate())
	}
}

func TestMouthToEarTracksJitterBuffer(t *testing.T) {
	calm := newHarness(t, fixedDelay(20*time.Millisecond))
	calm.s.RunUntil(8 * time.Second)
	m2e := calm.rcv.Renderer.MouthToEarMS
	if len(m2e) == 0 {
		t.Fatal("no mouth-to-ear samples")
	}
	// Fixed 20 ms path + min jitter buffer: mouth-to-ear in the tens of
	// ms, strictly above the network delay.
	for _, v := range m2e {
		if v < 20 || v > 500 {
			t.Fatalf("mouth-to-ear %v ms implausible", v)
		}
	}

	// A jittery path should push mouth-to-ear up (buffer expansion).
	i := 0
	wild := newHarness(t, func(p *packet.Packet) time.Duration {
		i++
		if i%5 == 0 {
			return 120 * time.Millisecond
		}
		return 20 * time.Millisecond
	})
	wild.s.RunUntil(8 * time.Second)
	calmMean := mean(calm.rcv.Renderer.MouthToEarMS)
	wildMean := mean(wild.rcv.Renderer.MouthToEarMS)
	if wildMean <= calmMean {
		t.Fatalf("jitter should raise mouth-to-ear: calm=%.1f wild=%.1f", calmMean, wildMean)
	}
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
