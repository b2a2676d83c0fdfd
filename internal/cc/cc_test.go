package cc

import (
	"math/rand"
	"testing"
	"time"

	"athena/internal/obs"
	"athena/internal/rtp"
	"athena/internal/units"
)

// wideRing is the send history as a 4 096-slot ring, four times
// History's: the reference History must agree with wherever a feedback
// report can look.
type wideRing struct {
	slots [1 << 12]SentPacket
	valid [1 << 12]bool
}

func (h *wideRing) Add(p SentPacket) {
	h.slots[p.Seq%(1<<12)] = p
	h.valid[p.Seq%(1<<12)] = true
}

func (h *wideRing) Get(seq uint16) (SentPacket, bool) {
	p := h.slots[seq%(1<<12)]
	if !h.valid[seq%(1<<12)] || p.Seq != seq {
		return SentPacket{}, false
	}
	return p, true
}

// Over increasing send streams whose gaps cross the uint16 wrap, every
// Get of a packet sent less than historySize sequence numbers before
// the newest answers as the wide ring does, and any other Get answers as
// it does or finds nothing: a ring never returns the wrong packet.
func TestHistoryMatchesWideRing(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	// sent[seq] is how far into the stream, unwrapped, seq was last sent.
	var sent [1 << 16]int
	var newest int
	check := func(h *History, ref *wideRing, seq uint16) {
		t.Helper()
		got, gok := h.Get(seq)
		want, wok := ref.Get(seq)
		if got == want && gok == wok {
			return
		}
		if gok || wok && newest-sent[seq] < historySize {
			t.Fatalf("Get(%d), sent %d before the newest: %+v %v, the wide ring says %+v %v", seq, newest-sent[seq], got, gok, want, wok)
		}
	}
	for stream := 0; stream < 16; stream++ {
		var h History
		var ref wideRing
		check(&h, &ref, uint16(rng.Intn(1<<16)))
		seq := uint16(1)
		newest = 1
		if stream%4 == 3 {
			seq = uint16(rng.Intn(1 << 16))
		}
		for i := 0; i < 3000; i++ {
			// Mostly consecutive, sometimes a gap of up to 3× the ring.
			gap := 1
			switch r := rng.Intn(100); {
			case r < 2:
				gap = rng.Intn(3 * historySize)
			case r < 10:
				gap = rng.Intn(64)
			}
			seq += uint16(gap)
			newest += gap
			sent[seq] = newest
			p := SentPacket{Seq: seq, Size: units.ByteCount(rng.Intn(1500)), SentAt: time.Duration(i) * time.Millisecond}
			h.Add(p)
			ref.Add(p)
			check(&h, &ref, seq-uint16(rng.Intn(300)))
			check(&h, &ref, seq+uint16(rng.Intn(300)))
			check(&h, &ref, seq-uint16(rng.Intn(8*historySize)))
			check(&h, &ref, uint16(rng.Intn(1<<16)))
		}
		for s := 0; s < 1<<16; s++ {
			check(&h, &ref, uint16(s))
		}
	}
}

// A zero-value History finds nothing, counts no miss and allocates
// nothing until its first Add.
func TestHistoryZeroValue(t *testing.T) {
	var h History
	before := metHistoryMisses.Value()
	for _, seq := range []uint16{0, 1, historySize, 65535} {
		if _, ok := h.Get(seq); ok {
			t.Fatalf("zero-value History found seq %d", seq)
		}
	}
	if h.slots != nil || metHistoryMisses.Value() != before {
		t.Fatal("a Get on a zero-value History allocated or counted a miss")
	}
}

// A lookup that finds another packet in its slot counts one
// cc.history_misses; a lookup of a slot never filled counts none.
func TestHistoryMissCounted(t *testing.T) {
	if !obs.Enabled() {
		obs.Enable()
		defer obs.Disable()
	}
	var h History
	before := metHistoryMisses.Value()
	for seq := uint16(1); seq <= 1+historySize; seq++ {
		h.Add(SentPacket{Seq: seq, Size: 1200})
	}
	if _, ok := h.Get(1); ok {
		t.Fatalf("seq 1 found after a %d-packet gap", historySize+1)
	}
	if p, ok := h.Get(1 + historySize); !ok || p.Seq != 1+historySize {
		t.Fatal("newest packet lost")
	}
	var fresh History
	fresh.Add(SentPacket{Seq: 1})
	fresh.Get(2)
	fresh.Get(1000)
	if n := metHistoryMisses.Value() - before; n != 1 {
		t.Fatalf("%d misses counted, want 1", n)
	}
}

func TestHistoryRoundTrip(t *testing.T) {
	var h History
	h.Add(SentPacket{Seq: 5, Size: 1200, SentAt: time.Millisecond})
	p, ok := h.Get(5)
	if !ok || p.Size != 1200 {
		t.Fatalf("Get: %+v %v", p, ok)
	}
	if _, ok := h.Get(6); ok {
		t.Fatal("missing seq found")
	}
}

func TestHistoryCollisionDetected(t *testing.T) {
	var h History
	h.Add(SentPacket{Seq: 1, Size: 100})
	// Seq 1+4096 maps to the same slot; after overwrite, Get(1) must miss.
	h.Add(SentPacket{Seq: 1 + 4096, Size: 200})
	if _, ok := h.Get(1); ok {
		t.Fatal("stale entry returned after collision")
	}
	p, ok := h.Get(1 + 4096)
	if !ok || p.Size != 200 {
		t.Fatal("new entry lost")
	}
}

func TestHistoryWrapsSeq(t *testing.T) {
	var h History
	for seq := uint16(65530); seq != 10; seq++ {
		h.Add(SentPacket{Seq: seq, Size: units.ByteCount(seq)})
	}
	for seq := uint16(65530); seq != 10; seq++ {
		if p, ok := h.Get(seq); !ok || p.Size != units.ByteCount(seq) {
			t.Fatalf("seq %d lost across wrap", seq)
		}
	}
}

func TestRateWindow(t *testing.T) {
	w := NewRateWindow(500 * time.Millisecond)
	// 62500 bytes over 500ms = 1 Mbps.
	for i := 0; i < 50; i++ {
		w.Add(time.Duration(i)*10*time.Millisecond, 1250)
	}
	got := w.Rate(500 * time.Millisecond)
	if got < 900*units.Kbps || got > 1100*units.Kbps {
		t.Fatalf("Rate = %v, want ~1Mbps", got)
	}
	// Much later, the window is empty.
	if w.Rate(10*time.Second) != 0 {
		t.Fatal("stale events not trimmed")
	}
}

func TestRateWindowDefault(t *testing.T) {
	if NewRateWindow(0).Window != 500*time.Millisecond {
		t.Fatal("default window")
	}
}

func TestLossEstimator(t *testing.T) {
	var l LossEstimator
	fb := &rtp.Feedback{Reports: []rtp.ArrivalInfo{
		{Seq: 1, Received: true}, {Seq: 2, Received: false},
	}}
	l.Update(fb)
	if l.Fraction() <= 0 || l.Fraction() > 0.5 {
		t.Fatalf("Fraction = %v", l.Fraction())
	}
	// All-received reports decay it.
	clean := &rtp.Feedback{Reports: []rtp.ArrivalInfo{{Seq: 3, Received: true}}}
	before := l.Fraction()
	for i := 0; i < 10; i++ {
		l.Update(clean)
	}
	if l.Fraction() >= before {
		t.Fatal("fraction did not decay")
	}
	l.Update(&rtp.Feedback{}) // empty: no change, no panic
}

func TestMaskFeedback(t *testing.T) {
	fb := &rtp.Feedback{SSRC: 1, Reports: []rtp.ArrivalInfo{
		{Seq: 1, Received: true, Arrival: 100 * time.Millisecond},
		{Seq: 2, Received: false},
		{Seq: 3, Received: true, Arrival: 200 * time.Millisecond},
	}}
	masked := MaskFeedback(fb, func(seq uint16) (time.Duration, bool) {
		if seq == 1 {
			return 30 * time.Millisecond, true
		}
		return 0, false
	})
	if masked.Reports[0].Arrival != 70*time.Millisecond {
		t.Errorf("seq 1 arrival = %v", masked.Reports[0].Arrival)
	}
	if masked.Reports[2].Arrival != 200*time.Millisecond {
		t.Errorf("seq 3 should be untouched")
	}
	// Original untouched.
	if fb.Reports[0].Arrival != 100*time.Millisecond {
		t.Fatal("input mutated")
	}
}

func TestMaskFeedbackNilCases(t *testing.T) {
	if MaskFeedback(nil, nil) != nil {
		t.Fatal("nil in, nil out")
	}
	fb := &rtp.Feedback{Reports: []rtp.ArrivalInfo{{Seq: 1, Received: true, Arrival: time.Second}}}
	out := MaskFeedback(fb, nil)
	if out.Reports[0].Arrival != time.Second {
		t.Fatal("nil adjuster should copy unchanged")
	}
}
