package phyaware

import (
	"math/rand"
	"testing"
	"time"

	"athena/internal/cc"
	"athena/internal/cc/gcc"
	"athena/internal/rtp"
	"athena/internal/units"
)

func TestTableAdjuster(t *testing.T) {
	tab := NewTable()
	tab.Set(5, 10*time.Millisecond)
	if d, ok := tab.RANDelay(5); !ok || d != 10*time.Millisecond {
		t.Fatalf("RANDelay: %v %v", d, ok)
	}
	if _, ok := tab.RANDelay(6); ok {
		t.Fatal("missing seq found")
	}
}

func TestAdjusterFunc(t *testing.T) {
	f := AdjusterFunc(func(seq uint16) (time.Duration, bool) { return time.Millisecond, seq == 1 })
	if d, ok := f.RANDelay(1); !ok || d != time.Millisecond {
		t.Fatal("AdjusterFunc broken")
	}
}

// The PHY-informed GCC sees through RAN-induced sawtooth delay while a
// vanilla GCC trips on it — the §5.3 headline property, here at unit
// scale (the full-path version is integration-tested).
func TestPHYAwareSuppressesPhantomOveruse(t *testing.T) {
	ranDelay := func(i int) time.Duration {
		return time.Duration(i%25) * 1200 * time.Microsecond
	}
	tab := NewTable()
	plain := New(units.Mbps, 50*units.Kbps, 3*units.Mbps, nil)
	aware := New(units.Mbps, 50*units.Kbps, 3*units.Mbps, tab)
	drive := func(g *gcc.GCC) {
		var hist cc.History
		var fb *rtp.Feedback
		for i := 0; i < 2000; i++ {
			seq := uint16(i)
			send := time.Duration(i) * 10 * time.Millisecond
			rd := ranDelay(i)
			tab.Set(seq, rd)
			hist.Add(cc.SentPacket{Seq: seq, Size: 1200, SentAt: send})
			if fb == nil {
				fb = &rtp.Feedback{SSRC: 1}
			}
			fb.Reports = append(fb.Reports, rtp.ArrivalInfo{
				Seq: seq, Received: true, Arrival: send + 5*time.Millisecond + rd,
			})
			if len(fb.Reports) == 5 {
				g.OnFeedback(fb, &hist, send+50*time.Millisecond)
				fb = nil
			}
		}
	}
	drive(plain)
	drive(aware)
	if plain.OveruseCount == 0 {
		t.Fatal("vanilla GCC should trip on RAN sawtooth")
	}
	if aware.OveruseCount != 0 {
		t.Fatalf("PHY-aware GCC tripped %d times", aware.OveruseCount)
	}
	if aware.TargetRate() <= plain.TargetRate() {
		t.Fatalf("PHY-aware should sustain a higher rate: %v vs %v",
			aware.TargetRate(), plain.TargetRate())
	}
}

// Genuine congestion must remain visible through the adjustment.
func TestPHYAwareStillSeesRealCongestion(t *testing.T) {
	tab := NewTable()
	aware := New(units.Mbps, 50*units.Kbps, 3*units.Mbps, tab)
	var hist cc.History
	var fb *rtp.Feedback
	for i := 0; i < 600; i++ {
		seq := uint16(i)
		send := time.Duration(i) * 10 * time.Millisecond
		tab.Set(seq, 0) // RAN explains nothing
		hist.Add(cc.SentPacket{Seq: seq, Size: 1200, SentAt: send})
		if fb == nil {
			fb = &rtp.Feedback{SSRC: 1}
		}
		// Real queue: delay grows 1ms per packet.
		fb.Reports = append(fb.Reports, rtp.ArrivalInfo{
			Seq: seq, Received: true,
			Arrival: send + 15*time.Millisecond + time.Duration(i)*time.Millisecond,
		})
		if len(fb.Reports) == 5 {
			aware.OnFeedback(fb, &hist, send+50*time.Millisecond)
			fb = nil
		}
	}
	if aware.OveruseCount == 0 {
		t.Fatal("PHY-aware GCC blind to genuine congestion")
	}
	if aware.TargetRate() >= units.Mbps {
		t.Fatalf("rate did not decrease: %v", aware.TargetRate())
	}
}

// The paged table answers as a map of every Set would, across the whole
// sequence space.
func TestTableMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	tab := NewTable()
	ref := map[uint16]time.Duration{}
	for i := 0; i < 20000; i++ {
		seq := uint16(rng.Intn(1 << 16))
		if i%3 == 0 {
			d := time.Duration(rng.Int63n(int64(time.Second)))
			tab.Set(seq, d)
			ref[seq] = d
		}
		want, wantOK := ref[seq]
		if got, ok := tab.RANDelay(seq); got != want || ok != wantOK {
			t.Fatalf("step %d: RANDelay(%d) = %v, %t, want %v, %t", i, seq, got, ok, want, wantOK)
		}
	}
	var zero Table
	if _, ok := zero.RANDelay(7); ok {
		t.Fatal("the zero Table reports an entry")
	}
}
