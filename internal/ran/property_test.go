package ran

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"athena/internal/packet"
	"athena/internal/sim"
	"athena/internal/units"
)

// Property: for arbitrary workloads and channel conditions, the cell
// preserves the core transport invariants — exactly-once delivery of
// every non-dropped packet, byte conservation, causality (nothing
// arrives before it could have been transmitted), and every buffer entry
// recycled exactly once.
func TestRANInvariantsProperty(t *testing.T) {
	type workload struct {
		Seed      int64
		BLERx100  uint8 // 0..40%
		Sizes     []uint16
		GapsMs    []uint8
		Scheduler uint8
	}
	f := func(w workload) bool {
		cfg := Defaults()
		cfg.BLER = float64(w.BLERx100%41) / 100
		sched := SchedulerKind(w.Scheduler % 3) // combined, bsr, proactive
		s := sim.New(w.Seed)
		core := &collector{s: s}
		r := New(s, cfg, core)
		ue := r.AttachUE(1, sched)
		var alloc packet.Alloc
		var sent []*packet.Packet
		var sentBytes units.ByteCount
		now := time.Duration(0)
		for i, raw := range w.Sizes {
			size := units.ByteCount(raw%3000) + 40
			gap := time.Duration(0)
			if i < len(w.GapsMs) {
				gap = time.Duration(w.GapsMs[i]%50) * time.Millisecond
			}
			now += gap
			p := alloc.New(packet.KindVideo, 1, size, now)
			sent = append(sent, p)
			sentBytes += size
			at := now
			s.At(at, func() { ue.Handle(p) })
		}
		s.RunUntil(now + 3*time.Second)

		// Exactly-once delivery of every non-dropped packet.
		got := map[uint64]int{}
		var gotBytes units.ByteCount
		for i, p := range core.pkts {
			got[p.ID]++
			gotBytes += p.Size
			// Causality: delivery after send.
			if core.at[i] < p.SentAt {
				return false
			}
		}
		dropped := 0
		for _, p := range sent {
			if p.GroundTruth.Dropped {
				dropped++
				if got[p.ID] != 0 {
					return false // dropped packet delivered
				}
				continue
			}
			if got[p.ID] != 1 {
				return false // lost or duplicated
			}
		}
		if len(got)+dropped != len(sent) {
			return false
		}
		// Byte conservation over delivered packets.
		var droppedBytes units.ByteCount
		for _, p := range sent {
			if p.GroundTruth.Dropped {
				droppedBytes += p.Size
			}
		}
		return gotBytes == sentBytes-droppedBytes && allSettled(ue, len(sent))
	}
	cfg := &quick.Config{
		MaxCount: 40,
		Rand:     rand.New(rand.NewSource(17)),
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// Property: the invariants hold per UE when an arbitrary number of UEs
// with arbitrary (possibly different) schedulers share the cell — the
// regime the multi-UE topology runs in. Contention may reorder service
// between UEs, but each UE's non-dropped packets still arrive exactly
// once, bytes are conserved flow by flow, causality holds, and the
// cell-wide HARQ drop counter is exactly the sum of the per-UE ones.
func TestRANMultiUEInvariantsProperty(t *testing.T) {
	type workload struct {
		Seed     int64
		BLERx100 uint8 // 0..40%
		NumUEs   uint8 // 1..5
		Scheds   []uint8
		Hints    []uint8
		Sizes    []uint16
		GapsMs   []uint8
		UEPick   []uint8
	}
	f := func(w workload) bool {
		nUE := int(w.NumUEs%5) + 1
		cfg := Defaults()
		cfg.BLER = float64(w.BLERx100%41) / 100
		s := sim.New(w.Seed)
		core := &collector{s: s}
		r := New(s, cfg, core)
		ues := make([]*UE, nUE)
		for i := range ues {
			sched := SchedCombined
			if i < len(w.Scheds) {
				sched = SchedulerKind(w.Scheds[i] % 7) // every strategy, qoe-aware included
			}
			ues[i] = r.AttachUE(uint32(i+1), sched)
			if i < len(w.Hints) {
				// Arbitrary app-hint mixes: the QoE-aware arbitration
				// order must preserve the transport invariants too.
				ues[i].Hint = AppHintClass(w.Hints[i] % 4)
			}
		}
		sent := make([][]*packet.Packet, nUE)
		sentBytes := make([]units.ByteCount, nUE)
		var alloc packet.Alloc
		now := time.Duration(0)
		for i, raw := range w.Sizes {
			size := units.ByteCount(raw%3000) + 40
			if i < len(w.GapsMs) {
				now += time.Duration(w.GapsMs[i]%20) * time.Millisecond
			}
			u := 0
			if i < len(w.UEPick) {
				u = int(w.UEPick[i]) % nUE
			}
			p := alloc.New(packet.KindVideo, uint32(u+1), size, now)
			sent[u] = append(sent[u], p)
			sentBytes[u] += size
			ue := ues[u]
			s.At(now, func() { ue.Handle(p) })
		}
		s.RunUntil(now + 5*time.Second)

		got := map[uint64]int{}
		gotBytes := make([]units.ByteCount, nUE)
		for i, p := range core.pkts {
			got[p.ID]++
			u := int(p.Flow) - 1
			if u < 0 || u >= nUE {
				return false // flow corrupted in transit
			}
			gotBytes[u] += p.Size
			if core.at[i] < p.SentAt {
				return false // causality
			}
		}
		for u := range sent {
			var droppedBytes units.ByteCount
			for _, p := range sent[u] {
				if p.GroundTruth.Dropped {
					droppedBytes += p.Size
					if got[p.ID] != 0 {
						return false // dropped packet delivered
					}
					continue
				}
				if got[p.ID] != 1 {
					return false // lost or duplicated
				}
			}
			if gotBytes[u] != sentBytes[u]-droppedBytes {
				return false // per-UE byte conservation
			}
		}
		total := 0
		for _, ue := range ues {
			if ue.Drops < 0 {
				return false
			}
			total += ue.Drops
		}
		return total == r.Drops
	}
	cfg := &quick.Config{
		MaxCount: 40,
		Rand:     rand.New(rand.NewSource(23)),
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// The paper's Fig 4 explanation: "audio samples rarely span multiple
// packets and are thus only delayed when sent in conjunction with a video
// frame." Audio packets enqueued right behind a frame burst inherit its
// queue; solo audio packets ride the next proactive grant.
func TestAudioDelayedOnlyWithVideo(t *testing.T) {
	cfg := Defaults()
	s := sim.New(1)
	core := &collector{s: s}
	r := New(s, cfg, core)
	ue := r.AttachUE(1, SchedCombined)
	var alloc packet.Alloc
	soloIDs := map[uint64]bool{}
	withIDs := map[uint64]bool{}
	// Alternate: a solo audio packet, then (1s later) a video burst with
	// an audio packet right behind it.
	for i := 0; i < 20; i++ {
		base := time.Duration(i) * 2 * time.Second
		s.At(base, func() {
			p := alloc.New(packet.KindAudio, 1, 130, s.Now())
			soloIDs[p.ID] = true
			ue.Handle(p)
		})
		s.At(base+time.Second, func() {
			for j := 0; j < 6; j++ {
				ue.Handle(alloc.New(packet.KindVideo, 1, 1200, s.Now()))
			}
			p := alloc.New(packet.KindAudio, 1, 130, s.Now())
			withIDs[p.ID] = true
			ue.Handle(p)
		})
	}
	s.RunUntil(41 * time.Second)
	var soloSum, withSum time.Duration
	var soloN, withN int
	for i, p := range core.pkts {
		d := core.at[i] - p.SentAt
		if soloIDs[p.ID] {
			soloSum += d
			soloN++
		}
		if withIDs[p.ID] {
			withSum += d
			withN++
		}
	}
	if soloN == 0 || withN == 0 {
		t.Fatalf("samples: solo=%d with=%d", soloN, withN)
	}
	solo, with := soloSum/time.Duration(soloN), withSum/time.Duration(withN)
	if with <= solo {
		t.Fatalf("audio behind a frame (%v) should wait longer than solo audio (%v)", with, solo)
	}
	if with < 2*solo {
		t.Fatalf("coincidence penalty too small: solo=%v with=%v", solo, with)
	}
}
