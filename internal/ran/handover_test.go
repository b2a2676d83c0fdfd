package ran

import (
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"athena/internal/obs"
	"athena/internal/packet"
	"athena/internal/sim"
	"athena/internal/units"
)

// Property: the transport invariants survive a handover. A UE detaches
// from a source cell mid-workload (with arbitrary traffic in its buffer
// and arbitrary HARQ state in flight), sits out a grant gap, and
// attaches to a target cell. Every non-dropped packet must still arrive
// exactly once, bytes buffered at the source must be conserved across
// the transfer (HARQ reset may not leak or duplicate segment bytes),
// the source cell must issue no transport blocks for the UE after the
// detach, the two cells' TBID spaces must stay disjoint, the UE's
// drop counter must equal the sum of the cells' drops, and once every
// packet is delivered or dropped each buffer entry is recycled exactly
// once (see allSettled).
func TestRANHandoverInvariantsProperty(t *testing.T) {
	type workload struct {
		Seed       int64
		BLERx100   uint8 // 0..40%
		Sizes      []uint16
		GapsMs     []uint8
		HandoverMs uint8 // detach time within the send window
		GapSlots   uint8 // grant gap, in UL periods
	}
	f := func(w workload) bool {
		cfg0 := Defaults()
		cfg0.BLER = float64(w.BLERx100%41) / 100
		cfg0.CellID = 0
		cfg1 := cfg0
		cfg1.CellID = 1
		s := sim.New(w.Seed)
		core := &collector{s: s}
		src := New(s, cfg0, core)
		dst := New(s, cfg1, core)
		ue := src.AttachUE(1, SchedCombined)

		var alloc packet.Alloc
		var sent []*packet.Packet
		var sentBytes units.ByteCount
		now := time.Duration(0)
		for i, raw := range w.Sizes {
			size := units.ByteCount(raw%3000) + 40
			if i < len(w.GapsMs) {
				now += time.Duration(w.GapsMs[i]%50) * time.Millisecond
			}
			p := alloc.New(packet.KindVideo, 1, size, now)
			sent = append(sent, p)
			sentBytes += size
			s.At(now, func() { ue.Handle(p) })
		}
		// Hand over somewhere inside (or just past) the send window, with
		// a grant gap of 0..7 UL periods.
		ho := time.Duration(w.HandoverMs) * time.Millisecond
		gap := time.Duration(w.GapSlots%8) * cfg0.ULPeriod()
		s.At(ho, func() {
			src.Detach(ue)
			s.After(gap, func() { dst.AttachExisting(ue) })
		})
		s.RunUntil(now + 5*time.Second)

		// Exactly-once delivery, causality, byte conservation.
		got := map[uint64]int{}
		var gotBytes units.ByteCount
		for i, p := range core.pkts {
			got[p.ID]++
			gotBytes += p.Size
			if core.at[i] < p.SentAt {
				return false // causality
			}
		}
		var droppedBytes units.ByteCount
		dropped := 0
		for _, p := range sent {
			if p.GroundTruth.Dropped {
				dropped++
				droppedBytes += p.Size
				if got[p.ID] != 0 {
					return false // dropped packet delivered
				}
				continue
			}
			if got[p.ID] != 1 {
				return false // leaked or duplicated across the transfer
			}
		}
		if len(got)+dropped != len(sent) {
			return false
		}
		if gotBytes != sentBytes-droppedBytes {
			return false // byte conservation across the handover
		}
		// The source cell is silent for this UE after the detach, and the
		// TBID spaces never collide: cell IDs live in the top 16 bits.
		seenTB := map[uint64]bool{}
		for _, rec := range src.Telemetry.Records {
			if rec.UE == ue.ID && rec.At >= ho && rec.HARQRound == 0 {
				return false // source granted after detach
			}
			if rec.TBID>>48 != 0 {
				return false
			}
			seenTB[rec.TBID] = true
		}
		for _, rec := range dst.Telemetry.Records {
			if rec.TBID>>48 != 1 {
				return false
			}
			if seenTB[rec.TBID] {
				return false // TBID collision across cells
			}
		}
		// Drops-sum invariant spans both attachments.
		return ue.Drops == src.Drops+dst.Drops && allSettled(ue, len(sent))
	}
	cfg := &quick.Config{
		MaxCount: 40,
		Rand:     rand.New(rand.NewSource(29)),
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// allSettled reports whether a UE with nothing left to send has
// recycled every buffer entry exactly once: its free list holds no entry
// twice (a second settle would hand one entry to two packets) and no
// entry that still references a packet. Empty TBs may still be retrying.
func allSettled(u *UE, sent int) bool {
	if u.buf.Len() != 0 || (len(u.free) == 0) != (sent == 0) {
		return false
	}
	for _, tb := range u.retx {
		if len(tb.segs) != 0 {
			return false
		}
	}
	seen := map[*bufEntry]bool{}
	for _, e := range u.free {
		if seen[e] || *e != (bufEntry{}) {
			return false
		}
		seen[e] = true
	}
	return true
}

// A handover with retransmissions in flight: the source cell's channel
// is fully opaque (BLER 1), so by detach time the packet's TBs are all
// awaiting HARQ retries. The reset must cancel them, return every byte
// to the buffer in order, and let the clean target cell deliver the
// packet exactly once — with only target-cell TBs' successful attempts
// carrying it.
func TestHandoverHARQResetRedelivers(t *testing.T) {
	cfg0 := Defaults()
	cfg0.BLER = 1.0
	cfg0.CellID = 0
	cfg1 := Defaults()
	cfg1.BLER = 0
	cfg1.CellID = 1
	s := sim.New(7)
	core := &collector{s: s}
	src := New(s, cfg0, core)
	dst := New(s, cfg1, core)
	ue := src.AttachUE(1, SchedCombined)

	var alloc packet.Alloc
	// Two packets: one fitting a single TB, one spanning several.
	small := alloc.New(packet.KindAudio, 1, 200, 0)
	big := alloc.New(packet.KindVideo, 1, 3000, 0)
	s.At(0, func() { ue.Handle(small); ue.Handle(big) })
	// First TBs go out at 2ms (first UL slot); their retries are due at
	// 12ms. Detach at 5ms — inside the retry window — and attach the
	// target at 25ms.
	s.At(5*time.Millisecond, func() {
		src.Detach(ue)
		if got, want := ue.Buffered(), units.ByteCount(3200); got != want {
			t.Errorf("after HARQ reset the buffer holds %d bytes, want %d", got, want)
		}
		s.After(20*time.Millisecond, func() { dst.AttachExisting(ue) })
	})
	s.RunUntil(3 * time.Second)

	if src.Drops != 0 || dst.Drops != 0 || ue.Drops != 0 {
		t.Fatalf("drops: src=%d dst=%d ue=%d, want all zero", src.Drops, dst.Drops, ue.Drops)
	}
	got := map[uint64]int{}
	for _, p := range core.pkts {
		got[p.ID]++
	}
	for _, p := range []*packet.Packet{small, big} {
		if got[p.ID] != 1 {
			t.Fatalf("packet %d delivered %d times, want exactly once", p.ID, got[p.ID])
		}
		if p.GroundTruth.Dropped {
			t.Fatalf("packet %d marked dropped", p.ID)
		}
		tbs := carriedBy(p.ID, src, dst)
		if len(tbs) == 0 {
			t.Fatalf("packet %d has no TB attribution", p.ID)
		}
		for _, id := range tbs {
			if id>>48 != 1 {
				t.Fatalf("packet %d carries TBID %#x not namespaced to the target cell", p.ID, id)
			}
		}
	}
}

// Two cells advancing concurrently on separate engines must each count
// exactly their own drops, per cell and per UE, while the process-wide
// ran.drops counter sums both — the isolation the sharded run depends
// on. Run under -race in CI.
func TestPerCellDropCountersDoNotInterleave(t *testing.T) {
	obs.ResetAll()
	obs.Enable()
	defer obs.Disable()
	rans := make([]*RAN, 2)
	var wg sync.WaitGroup
	for c := 0; c < 2; c++ {
		cfg := Defaults()
		cfg.CellID = uint32(c)
		cfg.BLER = 1.0 // every TB exhausts HARQ: deterministic drops
		s := sim.New(int64(c + 1))
		r := New(s, cfg, packet.Discard)
		rans[c] = r
		ue := r.AttachUE(1, SchedCombined)
		var alloc packet.Alloc
		for i := 0; i < 200; i++ {
			at := time.Duration(i) * 10 * time.Millisecond
			p := alloc.New(packet.KindVideo, 1, 1000, at)
			s.At(at, func() { ue.Handle(p) })
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.RunUntil(5 * time.Second)
		}()
	}
	wg.Wait()
	for c, r := range rans {
		if r.Drops != 200 || r.ues[0].Drops != 200 {
			t.Fatalf("cell %d dropped %d packets, its UE %d; want 200 each", c, r.Drops, r.ues[0].Drops)
		}
	}
	if got := obs.NewCounter("ran.drops").Value(); got != 400 {
		t.Fatalf("ran.drops = %d, want the two cells' 400", got)
	}
}
