package core

import (
	"math/rand"
	"testing"
	"time"

	"athena/internal/clock"
	"athena/internal/packet"
	"athena/internal/ran"
	"athena/internal/telemetry"
	"athena/internal/units"
)

func BenchmarkCorrelate(b *testing.B) {
	// One fixed 5-second session, correlated repeatedly: measures the
	// offline pipeline's throughput (≈4.5k packets + 10k TB attempts).
	bed := runBed(b, ran.SchedCombined, 0.05,
		clock.Perfect("s"), clock.Perfect("c"), 5*time.Second)
	in := bed.input(nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep := Correlate(in)
		if len(rep.Packets) == 0 {
			b.Fatal("empty report")
		}
	}
}

// synthInput builds a deterministic multi-flow session with exactly n
// sender records, without paying for a RAN simulation: interleaved flows
// (odd = video bursts, even = audio singles), one TB per backlogged UL
// slot draining the FIFO byte-conservatively, ~5% HARQ retransmissions
// and ~1% abandoned TBs (whose bytes a later TB re-serves). The sender
// and core captures come out time-ordered, like real capture taps.
func synthInput(n, flows int, seed int64) Input {
	rng := rand.New(rand.NewSource(seed))
	const slot = 500 * time.Microsecond
	in := Input{SlotDuration: slot}
	in.Sender = make([]packet.Record, 0, n)
	in.Core = make([]packet.Record, 0, n)
	seqs := make([]uint32, flows)
	var queue int64
	var tbid uint64
	now := time.Duration(0)
	for len(in.Sender) < n {
		now += slot
		for k := rng.Intn(4); k > 0 && len(in.Sender) < n; k-- {
			f := uint32(1 + rng.Intn(flows))
			kind, size := packet.KindVideo, units.ByteCount(1200)
			if f%2 == 0 {
				kind, size = packet.KindAudio, units.ByteCount(120)
			}
			r := packet.Record{
				Kind: kind, Flow: f,
				Seq: seqs[f-1], Size: size, LocalTime: now,
				SSRC: f, RTPTime: uint32(now / (33 * time.Millisecond)),
			}
			seqs[f-1]++
			in.Sender = append(in.Sender, r)
			c := r
			c.LocalTime = now + 3*time.Millisecond
			in.Core = append(in.Core, c)
			queue += int64(size)
		}
		if queue == 0 {
			continue
		}
		use := int64(2500)
		if use > queue {
			use = queue
		}
		tbid++
		rec := telemetry.TBRecord{
			TBID: tbid, UE: 1, At: now + slot, TBS: 3000,
			UsedBytes: units.ByteCount(use), Grant: telemetry.GrantProactive,
		}
		if rng.Float64() < 0.01 {
			// Abandoned: HARQ gives up, the bytes stay queued for the
			// next TB.
			rec.Failed = true
			in.TBs = append(in.TBs, rec)
			continue
		}
		queue -= use
		if rng.Float64() < 0.05 {
			fail := rec
			fail.Failed = true
			in.TBs = append(in.TBs, fail)
			rec.HARQRound = 1
			rec.At += 10 * time.Millisecond
		}
		in.TBs = append(in.TBs, rec)
	}
	return in
}

func benchCorrelateN(b *testing.B, n int) {
	in := synthInput(n, 4, 42)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep := Correlate(in)
		if len(rep.Packets) != n {
			b.Fatalf("correlated %d of %d packets", len(rep.Packets), n)
		}
	}
}

func BenchmarkCorrelate10k(b *testing.B)  { benchCorrelateN(b, 10_000) }
func BenchmarkCorrelate100k(b *testing.B) { benchCorrelateN(b, 100_000) }
