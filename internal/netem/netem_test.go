package netem

import (
	"testing"
	"time"

	"athena/internal/packet"
	"athena/internal/sim"
	"athena/internal/units"
)

type sink struct {
	s    *sim.Simulator
	pkts []*packet.Packet
	at   []time.Duration
}

func (k *sink) Handle(p *packet.Packet) {
	k.pkts = append(k.pkts, p)
	k.at = append(k.at, k.s.Now())
}

func TestLinkPureDelay(t *testing.T) {
	s := sim.New(1)
	k := &sink{s: s}
	l := NewLink(s, "wan", 10*time.Millisecond, 0, k)
	var alloc packet.Alloc
	s.At(time.Millisecond, func() { l.Handle(alloc.New(packet.KindVideo, 1, 1200, s.Now())) })
	s.Run()
	if len(k.pkts) != 1 || k.at[0] != 11*time.Millisecond {
		t.Fatalf("arrival = %v", k.at)
	}
}

func TestLinkSerialization(t *testing.T) {
	s := sim.New(1)
	k := &sink{s: s}
	// 10 Mbps: 1250 B takes 1 ms.
	l := NewLink(s, "core", 0, 10*units.Mbps, k)
	var alloc packet.Alloc
	s.At(0, func() {
		l.Handle(alloc.New(packet.KindVideo, 1, 1250, 0))
		l.Handle(alloc.New(packet.KindVideo, 1, 1250, 0))
	})
	s.Run()
	if len(k.at) != 2 {
		t.Fatalf("delivered %d", len(k.at))
	}
	if k.at[0] != time.Millisecond || k.at[1] != 2*time.Millisecond {
		t.Fatalf("serialization: %v", k.at)
	}
}

func TestLinkJitterBounded(t *testing.T) {
	s := sim.New(1)
	k := &sink{s: s}
	l := NewLink(s, "j", 5*time.Millisecond, 0, k)
	l.Jitter = 3 * time.Millisecond
	var alloc packet.Alloc
	for i := 0; i < 50; i++ {
		at := time.Duration(i) * 10 * time.Millisecond
		s.At(at, func() { l.Handle(alloc.New(packet.KindVideo, 1, 100, s.Now())) })
	}
	s.Run()
	for i, a := range k.at {
		d := a - k.pkts[i].SentAt
		if d < 5*time.Millisecond || d >= 8*time.Millisecond {
			t.Fatalf("delay %v outside [5ms,8ms)", d)
		}
	}
}

func TestSFUMediaJittersProbesDoNot(t *testing.T) {
	s := sim.New(1)
	k := &sink{s: s}
	f := NewSFU(s, k)
	var alloc packet.Alloc
	for i := 0; i < 200; i++ {
		at := time.Duration(i) * 5 * time.Millisecond
		s.At(at, func() {
			f.Handle(alloc.New(packet.KindVideo, 1, 1200, s.Now()))
			f.Handle(alloc.New(packet.KindICMP, 2, 64, s.Now()))
		})
	}
	s.Run()
	var maxMedia, maxProbe time.Duration
	for i, p := range k.pkts {
		d := k.at[i] - p.SentAt
		if p.Kind == packet.KindICMP {
			if d > maxProbe {
				maxProbe = d
			}
		} else if d > maxMedia {
			maxMedia = d
		}
	}
	if maxProbe != f.Base {
		t.Fatalf("probe delay = %v, want exactly base %v", maxProbe, f.Base)
	}
	if maxMedia <= f.Base {
		t.Fatalf("media delay %v should exceed base", maxMedia)
	}
	if f.Forwarded != 200 {
		t.Fatalf("Forwarded = %d", f.Forwarded)
	}
}

func TestFixedLatencyLinkConstantDelay(t *testing.T) {
	s := sim.New(1)
	k := &sink{s: s}
	l := NewFixedLatencyLink(s, 15*time.Millisecond, 100000, 2500*time.Microsecond, k)
	var alloc packet.Alloc
	for i := 0; i < 20; i++ {
		at := time.Duration(i) * 7 * time.Millisecond
		s.At(at, func() { l.Handle(alloc.New(packet.KindVideo, 1, 1200, s.Now())) })
	}
	s.RunUntil(time.Second)
	if len(k.pkts) != 20 {
		t.Fatalf("delivered %d", len(k.pkts))
	}
	for i, a := range k.at {
		if d := a - k.pkts[i].SentAt; d != 15*time.Millisecond {
			t.Fatalf("delay = %v, want exactly 15ms", d)
		}
	}
}

func TestFixedLatencyLinkRespectsBudget(t *testing.T) {
	s := sim.New(1)
	k := &sink{s: s}
	// 1200 B budget per 2.5 ms: one packet per interval.
	l := NewFixedLatencyLink(s, 0, 1200, 2500*time.Microsecond, k)
	var alloc packet.Alloc
	s.At(0, func() {
		for i := 0; i < 4; i++ {
			l.Handle(alloc.New(packet.KindVideo, 1, 1200, 0))
		}
	})
	s.RunUntil(100 * time.Millisecond)
	if len(k.at) != 4 {
		t.Fatalf("delivered %d", len(k.at))
	}
	// First immediately, rest one per refill.
	if k.at[0] != 0 {
		t.Fatalf("first at %v", k.at[0])
	}
	for i := 1; i < 4; i++ {
		want := time.Duration(i) * 2500 * time.Microsecond
		if k.at[i] != want {
			t.Fatalf("packet %d at %v, want %v", i, k.at[i], want)
		}
	}
	if l.QueueLen() != 0 {
		t.Fatal("queue not drained")
	}
}

func TestFixedLatencyLinkDefaults(t *testing.T) {
	s := sim.New(1)
	l := NewFixedLatencyLink(s, time.Millisecond, 0, 0, nil)
	var alloc packet.Alloc
	l.Handle(alloc.New(packet.KindVideo, 1, 1200, 0)) // must not panic
	s.RunUntil(10 * time.Millisecond)
}

func TestLinkNilNext(t *testing.T) {
	s := sim.New(1)
	l := NewLink(s, "x", 0, 0, nil)
	var alloc packet.Alloc
	l.Handle(alloc.New(packet.KindVideo, 1, 100, 0))
	s.Run() // must not panic
}

// A packet's hops schedule no closures: once the event free list is
// warm, a packet through a jittered, rate-limited Link and then an SFU
// allocates nothing.
func TestLinkAndSFUHopsNoAllocs(t *testing.T) {
	s := sim.New(1)
	n := 0
	f := NewSFU(s, packet.HandlerFunc(func(*packet.Packet) { n++ }))
	l := NewLink(s, "wan", 10*time.Millisecond, 100*units.Mbps, f)
	l.Jitter = time.Millisecond
	var alloc packet.Alloc
	burst := make([]*packet.Packet, 4)
	for i := range burst {
		burst[i] = alloc.New(packet.KindVideo, 1, 1200, 0)
	}
	send := func() {
		for _, p := range burst {
			l.Handle(p)
		}
		s.Run()
	}
	send()
	if allocs := testing.AllocsPerRun(200, send); allocs != 0 {
		t.Fatalf("%.1f allocations per %d-packet burst, want 0", allocs, len(burst))
	}
	if want := len(burst) * 202; n != want {
		t.Fatalf("SFU forwarded %d packets, want %d", n, want)
	}
}
