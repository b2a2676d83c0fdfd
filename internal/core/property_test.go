package core

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"athena/internal/clock"
	"athena/internal/packet"
	"athena/internal/ran"
	"athena/internal/sim"
	"athena/internal/units"
)

// Property: with perfect clock sync, the byte-conservation matcher
// recovers the exact packet↔TB mapping for arbitrary workloads — across
// schedulers and packet-size mixes, on a clean channel.
func TestMatchAccuracyProperty(t *testing.T) {
	type workload struct {
		Seed   int64
		Sizes  []uint16
		GapsMs []uint8
		Sched  uint8
	}
	f := func(w workload) bool {
		if len(w.Sizes) == 0 {
			return true
		}
		cfg := ran.Defaults()
		s := sim.New(w.Seed)
		var arrivals []*packet.Packet
		coreTap := packet.NewCapture(clock.Perfect("c"), s.Now,
			packet.HandlerFunc(func(p *packet.Packet) { arrivals = append(arrivals, p) }))
		r := ran.New(s, cfg, coreTap)
		ue := r.AttachUE(1, ran.SchedulerKind(w.Sched%3))
		senderTap := packet.NewCapture(clock.Perfect("s"), s.Now, ue)
		var alloc packet.Alloc
		var sent []*packet.Packet
		now := time.Duration(0)
		seq := uint32(0)
		for i, raw := range w.Sizes {
			size := units.ByteCount(raw%2500) + 60
			if i < len(w.GapsMs) {
				now += time.Duration(w.GapsMs[i]%40) * time.Millisecond
			}
			p := alloc.New(packet.KindVideo, 1, size, now)
			p.Seq = seq
			seq++
			sent = append(sent, p)
			at := now
			s.At(at, func() { senderTap.Handle(p) })
		}
		s.RunUntil(now + 2*time.Second)

		rep := Correlate(Input{
			Sender:       senderTap.Records,
			Core:         coreTap.Records,
			TBs:          r.Telemetry.ForUE(1),
			SlotDuration: cfg.SlotDuration,
			CoreDelay:    cfg.CoreDelay,
		})
		acc := rep.MatchAccuracy(senderTap.Records, r.Telemetry.Records)
		return acc >= 0.999
	}
	cfg := &quick.Config{MaxCount: 30, Rand: rand.New(rand.NewSource(23))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// Property: attribution components never go negative and never exceed the
// total uplink delay.
func TestAttributionBoundsProperty(t *testing.T) {
	bed := runBed(t, ran.SchedCombined, 0.2, clock.Perfect("s"), clock.Perfect("c"), 3*time.Second)
	rep := Correlate(bed.input(nil))
	for _, v := range rep.Packets {
		if !v.SeenCore {
			continue
		}
		if v.QueueWait < 0 || v.BSRWait < 0 || v.HARQDelay < 0 {
			t.Fatalf("negative attribution: %+v", v)
		}
		if v.BSRWait > v.QueueWait {
			t.Fatalf("BSR wait %v exceeds queue wait %v", v.BSRWait, v.QueueWait)
		}
		if v.QueueWait+v.HARQDelay > v.ULDelay+time.Millisecond {
			t.Fatalf("attribution %v+%v exceeds total %v",
				v.QueueWait, v.HARQDelay, v.ULDelay)
		}
	}
}

// Property: a report's breakdown is the Merge of its per-flow
// breakdowns — exactly, not approximately. Both fold the same
// Components() into integer totals, and integer addition does not care
// how the packets are partitioned; float millisecond totals would.
func TestAttributeIsExactSumOfFlows(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		in := synthInput(4000, 7, seed)
		rng := rand.New(rand.NewSource(seed))
		for _, r := range in.Core {
			r.LocalTime += 20*time.Millisecond + time.Duration(rng.Int63n(int64(7*time.Millisecond)))
			in.Receiver = append(in.Receiver, r)
		}
		in.ProbeOWDBaseline = 21 * time.Millisecond
		rep := Correlate(in)

		byFlow := rep.AttributeByFlow()
		var sum Attribution
		for _, a := range byFlow {
			sum.Merge(a)
		}
		whole := rep.Attribute()
		if len(byFlow) != 7 || whole.RetxAffected == 0 || whole.TotalNS[IdxSFU] == 0 {
			t.Fatalf("seed %d: vacuous report: %d flows, %+v", seed, len(byFlow), whole)
		}
		if whole != sum {
			t.Fatalf("seed %d: report %+v != sum over flows %+v", seed, whole, sum)
		}
	}
}
