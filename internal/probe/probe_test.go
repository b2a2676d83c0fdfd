package probe

import (
	"testing"
	"time"

	"athena/internal/packet"
	"athena/internal/sim"
)

// echoPath loops probe packets through a fixed forward and return delay.
func echoPath(s *sim.Simulator, p *Prober, fwd, ret time.Duration) packet.Handler {
	return packet.HandlerFunc(func(pkt *packet.Packet) {
		s.After(fwd, func() {
			p.Echo(pkt)
			s.After(ret, func() { p.Done(pkt) })
		})
	})
}

func TestProberMeasuresOWDAndRTT(t *testing.T) {
	s := sim.New(1)
	var alloc packet.Alloc
	var pr *Prober
	pr = New(s, &alloc, 9, nil)
	pr.forward = echoPath(s, pr, 7*time.Millisecond, 3*time.Millisecond)
	pr.Start()
	s.RunUntil(200 * time.Millisecond)
	pr.Stop()
	if len(pr.Results) < 9 {
		t.Fatalf("results = %d", len(pr.Results))
	}
	for _, r := range pr.Results {
		if r.OWD() != 7*time.Millisecond {
			t.Fatalf("OWD = %v", r.OWD())
		}
		if r.RTT() != 10*time.Millisecond {
			t.Fatalf("RTT = %v", r.RTT())
		}
	}
	if pr.Outstanding() > 1 {
		t.Fatalf("outstanding = %d", pr.Outstanding())
	}
}

func TestProberSummary(t *testing.T) {
	s := sim.New(1)
	var alloc packet.Alloc
	pr := New(s, &alloc, 9, nil)
	pr.forward = echoPath(s, pr, 5*time.Millisecond, time.Millisecond)
	pr.Start()
	s.RunUntil(500 * time.Millisecond)
	sum := pr.Summary()
	if sum.Count == 0 || sum.P50 != 5 {
		t.Fatalf("summary: %+v", sum)
	}
	owds := pr.OWDsMS()
	if len(owds) != sum.Count {
		t.Fatal("OWDsMS length mismatch")
	}
}

func TestProberIgnoresUnknownSeq(t *testing.T) {
	s := sim.New(1)
	var alloc packet.Alloc
	pr := New(s, &alloc, 9, packet.Discard)
	stray := alloc.New(packet.KindICMP, 9, 64, 0)
	stray.Seq = 999
	pr.Echo(stray)
	pr.Done(stray) // must not panic or record
	if len(pr.Results) != 0 {
		t.Fatal("stray packet recorded")
	}
}

func TestProberStop(t *testing.T) {
	s := sim.New(1)
	var alloc packet.Alloc
	sent := 0
	pr := New(s, &alloc, 9, packet.HandlerFunc(func(*packet.Packet) { sent++ }))
	pr.Start()
	s.At(35*time.Millisecond, func() { pr.Stop() })
	s.RunUntil(time.Second)
	if sent != 2 { // t=0,20
		t.Fatalf("sent = %d", sent)
	}
}
