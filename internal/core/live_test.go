package core

import (
	"slices"
	"testing"
	"time"

	"athena/internal/clock"
	"athena/internal/packet"
	"athena/internal/ran"
	"athena/internal/telemetry"
	"athena/internal/units"
)

// liveBed runs the same workload as runBed but streams records into a
// LiveCorrelator as they are produced.
func runLive(t *testing.T, dur time.Duration, flush time.Duration) (views []PacketView, bed *testbed) {
	t.Helper()
	bed = runBed(t, ran.SchedCombined, 0, clock.Perfect("s"), clock.Perfect("c"), dur)
	lc := NewLive(Input{
		SlotDuration: bed.r.Cfg.SlotDuration,
		CoreDelay:    bed.r.Cfg.CoreDelay,
	}, func(v PacketView) { views = append(views, v.Clone()) })
	if flush > 0 {
		lc.FlushAfter = flush
	}
	// Replay the captures in timestamp order in 100 ms steps, as a live
	// tap would deliver them.
	senderIdx, coreIdx, tbIdx := 0, 0, 0
	tbs := bed.r.Telemetry.ForUE(1)
	var fed tbLog
	for now := time.Duration(0); now < dur+2*time.Second; now += 100 * time.Millisecond {
		for senderIdx < len(bed.capSend.Records) && bed.capSend.Records[senderIdx].LocalTime <= now {
			lc.OnSenderRecord(bed.capSend.Records[senderIdx])
			senderIdx++
		}
		for coreIdx < len(bed.capCore.Records) && bed.capCore.Records[coreIdx].LocalTime <= now {
			lc.OnCoreRecord(bed.capCore.Records[coreIdx])
			coreIdx++
		}
		for tbIdx < len(tbs) && tbs[tbIdx].At <= now {
			fed.feed(lc, tbs[tbIdx])
			tbIdx++
		}
		lc.Advance(now)
		assertRederives(t, lc, &fed)
	}
	return views, bed
}

func TestLiveEmitsAllExactlyOnceInOrder(t *testing.T) {
	views, bed := runLive(t, 2*time.Second, 0)
	if len(views) != len(bed.capSend.Records) {
		t.Fatalf("emitted %d views for %d sent packets", len(views), len(bed.capSend.Records))
	}
	seen := map[rawKey]bool{}
	var lastSent time.Duration
	for _, v := range views {
		k := rawKey{v.Flow, v.Seq, v.Kind}
		if seen[k] {
			t.Fatalf("packet %+v emitted twice", k)
		}
		seen[k] = true
		if v.SentAt < lastSent {
			t.Fatalf("emission out of send order: %v after %v", v.SentAt, lastSent)
		}
		lastSent = v.SentAt
	}
}

// TestLiveMatchesBatch replays a real testbed workload live and checks
// every emitted view that saw the core against the batch correlation of
// the same captures: as fed, and with aggressive flushing that forces
// many mid-stream trims, which must never change what is emitted.
func TestLiveMatchesBatch(t *testing.T) {
	for _, tc := range []struct {
		name       string
		dur, flush time.Duration
	}{
		{"2s", 2 * time.Second, 0},
		{"3s-flush150ms", 3 * time.Second, 150 * time.Millisecond},
	} {
		t.Run(tc.name, func(t *testing.T) {
			views, bed := runLive(t, tc.dur, tc.flush)
			batch := Correlate(bed.input(nil))
			if len(views) != len(batch.Packets) {
				t.Fatalf("emitted %d views, batch has %d", len(views), len(batch.Packets))
			}
			checked := 0
			for i, v := range views {
				bv := batch.Packets[i]
				if v.Flow != bv.Flow || v.Seq != bv.Seq || v.Kind != bv.Kind {
					t.Fatalf("view %d is %d/%d/%s, batch has %d/%d/%s", i, v.Flow, v.Seq, v.Kind, bv.Flow, bv.Seq, bv.Kind)
				}
				if !v.SeenCore {
					continue
				}
				if v.ULDelay != bv.ULDelay || !equalIDs(v.TBIDs, bv.TBIDs) || v.QueueWait != bv.QueueWait || v.HARQDelay != bv.HARQDelay {
					t.Fatalf("seq %d diverges: ul %v/%v tbs %v/%v queue %v/%v harq %v/%v", v.Seq,
						v.ULDelay, bv.ULDelay, v.TBIDs, bv.TBIDs, v.QueueWait, bv.QueueWait, v.HARQDelay, bv.HARQDelay)
				}
				checked++
			}
			if checked < 100 {
				t.Fatalf("only %d resolved views compared", checked)
			}
		})
	}
}

func TestLiveEmissionLatencyBounded(t *testing.T) {
	// With a short flush horizon, even unresolvable packets are emitted.
	s := []packet.Record{{
		PacketID: 1, Kind: packet.KindVideo,
		Flow: 1, Seq: 0, Size: 1200, LocalTime: 10 * time.Millisecond,
	}}
	var got []PacketView
	lc := NewLive(Input{}, func(v PacketView) { got = append(got, v.Clone()) })
	lc.FlushAfter = 100 * time.Millisecond
	lc.OnSenderRecord(s[0])
	lc.Advance(50 * time.Millisecond)
	if len(got) != 0 {
		t.Fatal("emitted before resolution or horizon")
	}
	lc.Advance(200 * time.Millisecond)
	if len(got) != 1 {
		t.Fatalf("horizon flush failed: %d", len(got))
	}
	if got[0].SeenCore {
		t.Fatal("lost packet marked seen")
	}
}

// The TB-process table Advance reads back after each pass has one writer
// and must describe exactly the window just correlated: positions stay
// valid when merged two-cell telemetry around a handover trips the stable
// sort, and a TB-less window after a full drain leaves it empty rather
// than holding the previous window's processes.
func TestLiveTBProcessTableMatchesWindow(t *testing.T) {
	lc := NewLive(Input{SlotDuration: 500 * time.Microsecond}, nil)
	lc.FlushAfter = 50 * time.Millisecond
	for i := 0; i < 3; i++ {
		at := time.Duration(i+1) * time.Millisecond
		lc.OnSenderRecord(rec(1, uint32(i), packet.KindVideo, at))
	}
	// The source cell's stream (TBs 10, 11) is delivered ahead of the
	// target cell's (TB 20), whose transmission falls between them.
	for _, tb := range []telemetry.TBRecord{
		{TBID: 10, At: 5 * time.Millisecond, UE: 1, TBS: 1200, UsedBytes: 1200},
		{TBID: 11, At: 9 * time.Millisecond, UE: 1, TBS: 1200, UsedBytes: 1200},
		{TBID: 20, At: 7 * time.Millisecond, UE: 1, TBS: 1200, UsedBytes: 1200},
	} {
		lc.OnTB(tb)
	}
	if err := lc.Advance(10 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	procs, procIdx := lc.procs, lc.procIdx
	if len(procs) != 3 || procs[1].id != 20 {
		t.Fatalf("interleaved telemetry did not trip the sort: %+v", procs)
	}
	for id, j := range procIdx {
		if procs[j].id != id {
			t.Fatalf("procIdx[%d] = %d, but that position holds TB %d", id, j, procs[j].id)
		}
	}

	for i := 0; i < 3; i++ {
		lc.OnCoreRecord(rec(1, uint32(i), packet.KindVideo, time.Duration(i+11)*time.Millisecond))
	}
	if err := lc.Advance(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if snap := lc.Snapshot(); snap.Pending != 0 || snap.BufferedTBs != 0 {
		t.Fatalf("full drain expected: %+v", snap)
	}
	lc.OnSenderRecord(rec(1, 3, packet.KindVideo, 11*time.Second))
	if err := lc.Advance(11 * time.Second); err != nil {
		t.Fatal(err)
	}
	if len(lc.procs) != 0 || len(lc.procIdx) != 0 {
		t.Fatalf("TB-less window kept the previous window's table: %d processes, %d indexed",
			len(lc.procs), len(lc.procIdx))
	}
}

// feedStep advances a synthetic never-draining session by one packet:
// seq's sender record arrives now, while the previous packet's TB and
// core arrival resolve it. The freshest packet is therefore always
// unresolved at Advance time, keeping Pending() positive — the regime
// the mid-stream trim exists for. Spacing is 10 ms per seq. The TB goes
// through fed, which may be nil.
func feedStep(lc *LiveCorrelator, fed *tbLog, seq uint32) {
	now := time.Duration(seq) * 10 * time.Millisecond
	lc.OnSenderRecord(packet.Record{
		Kind: packet.KindVideo,
		Flow: 1, Seq: seq, Size: 1200, LocalTime: now,
	})
	if seq == 0 {
		return
	}
	prev := now - 10*time.Millisecond
	fed.feed(lc, telemetry.TBRecord{
		At: prev + 2*time.Millisecond, TBID: uint64(seq), UE: 1,
		TBS: 1200, UsedBytes: 1200, Grant: telemetry.GrantProactive,
	})
	lc.OnCoreRecord(packet.Record{
		Kind: packet.KindVideo,
		Flow: 1, Seq: seq - 1, Size: 1200, LocalTime: prev + 6*time.Millisecond,
	})
}

// TestLiveMidStreamTrimBoundsBuffers drives a session that never fully
// drains — there is always one unresolved packet in flight — and checks
// the mid-stream trim still bounds every buffer. Before the prefix trim
// existed, sender/core/tbs grew linearly for the whole session whenever
// Pending() never reached zero.
func TestLiveMidStreamTrimBoundsBuffers(t *testing.T) {
	lc := NewLive(Input{SlotDuration: 500 * time.Microsecond}, nil)
	const n = 2000
	maxSender, maxCore, maxTBs := 0, 0, 0
	var fed tbLog
	for i := 0; i < n; i++ {
		feedStep(lc, &fed, uint32(i))
		// The freshest packet's TB and core record are not fed yet at
		// Advance time: hold it back by advancing only to its send time,
		// inside the flush horizon, so Pending() stays positive.
		lc.Advance(time.Duration(i) * 10 * time.Millisecond)
		assertRederives(t, lc, &fed)
		if lc.Pending() == 0 && i > 0 {
			t.Fatalf("iteration %d: fully drained; this test must exercise the mid-stream path", i)
		}
		if len(lc.sizes) > maxSender {
			maxSender = len(lc.sizes)
		}
		if lc.nCore > maxCore {
			maxCore = lc.nCore
		}
		if lc.nTBs > maxTBs {
			maxTBs = lc.nTBs
		}
	}
	// The horizon is FlushAfter (500 ms) = 50 packets of history, plus
	// the 1 s TB settle window; anything linear in n means the trim
	// regressed.
	const bound = 300
	if maxSender > bound || maxCore > bound || maxTBs > bound {
		t.Fatalf("buffers unbounded mid-stream: sender<=%d core<=%d tbs<=%d (bound %d)",
			maxSender, maxCore, maxTBs, bound)
	}
}

// TestLiveMidStreamTrimDropsSettledTBs adds an empty grant to every step
// of the never-draining session. Empty TBs carry no packet, so no trim
// spends them; only the settled-old rule retires them, once they are too
// old for causality and their HARQ process is over.
func TestLiveMidStreamTrimDropsSettledTBs(t *testing.T) {
	lc := NewLive(Input{SlotDuration: 500 * time.Microsecond}, nil)
	var fed tbLog
	for i := 0; i < 1000; i++ {
		feedStep(lc, &fed, uint32(i))
		now := time.Duration(i) * 10 * time.Millisecond
		fed.feed(lc, telemetry.TBRecord{At: now + time.Millisecond, TBID: 1<<32 | uint64(i), UE: 1, TBS: 1200})
		lc.Advance(now)
		assertRederives(t, lc, &fed)
		// 1.5 s of empty grants, plus the spent-TB window.
		if got := lc.Snapshot().BufferedTBs; got > 300 {
			t.Fatalf("step %d: %d TB records buffered", i, got)
		}
	}
}

// After a full drain the next walk covers every kept TB again, even when
// the drain also closed the slots of the TBs it cut: TB 100 outlives the
// cut of TBs 1–10 and must carry the next packet.
func TestLiveDrainRewalksKeptTBs(t *testing.T) {
	var views []PacketView
	lc := NewLive(Input{SlotDuration: 500 * time.Microsecond}, func(v PacketView) { views = append(views, v.Clone()) })
	lc.FlushAfter = 50 * time.Millisecond
	var fed tbLog
	for i := 0; i < 10; i++ {
		fed.feed(lc, telemetry.TBRecord{TBID: uint64(i + 1), At: time.Duration(i) * time.Millisecond, UE: 1, TBS: 1200, UsedBytes: 1000})
	}
	feed := func(seq uint32, at time.Duration) {
		lc.OnSenderRecord(rec(1, seq, packet.KindVideo, at))
		lc.OnCoreRecord(rec(1, seq, packet.KindVideo, at+2*time.Millisecond))
	}
	feed(0, 5*time.Millisecond)
	lc.Advance(20 * time.Millisecond)
	fed.feed(lc, telemetry.TBRecord{TBID: 100, At: 2 * time.Second, UE: 1, TBS: 1200, UsedBytes: 1200})
	lc.Advance(2 * time.Second)
	feed(1, 2*time.Second+time.Millisecond)
	lc.Advance(2*time.Second + 10*time.Millisecond)
	assertRederives(t, lc, &fed)
	if len(views) != 2 || !slices.Equal(views[1].TBIDs, []uint64{100}) {
		t.Fatalf("views %+v, want the second carried by TB 100", views)
	}
}

// A full drain keeps or drops a HARQ process whole. Here the drain's
// one-second retention cut falls between a TB's failed first attempt and
// its successful retry: the process stays, first attempt included.
func TestLiveDrainKeepsStraddlingProcessWhole(t *testing.T) {
	var views []PacketView
	lc := NewLive(Input{SlotDuration: 500 * time.Microsecond}, func(v PacketView) { views = append(views, v.Clone()) })
	var fed tbLog
	const s = time.Second
	lc.OnSenderRecord(rec(1, 0, packet.KindVideo, 995*time.Millisecond))
	fed.feed(lc, telemetry.TBRecord{TBID: 7, At: s, UE: 1, TBS: 1200, UsedBytes: 1200, Failed: true})
	fed.feed(lc, telemetry.TBRecord{TBID: 7, At: s + 10*time.Millisecond, UE: 1, TBS: 1200, UsedBytes: 1200, HARQRound: 1})
	lc.OnCoreRecord(rec(1, 0, packet.KindVideo, s+15*time.Millisecond))
	lc.Advance(s + 100*time.Millisecond)
	if len(views) != 1 || !slices.Equal(views[0].TBIDs, []uint64{7}) {
		t.Fatalf("views %+v, want the packet carried by TB 7", views)
	}
	// keepFrom = 2.505 s - FlushAfter - 1 s = 1.005 s.
	lc.Advance(2*s + 505*time.Millisecond)
	assertRederives(t, lc, &fed)
	if got := lc.Snapshot().BufferedTBs; got != 2 {
		t.Fatalf("%d TB attempts buffered, want both of the straddling process", got)
	}
	if p := lc.procs[lc.procIdx[7]]; p.initialAt != s {
		t.Fatalf("process starts at %v, want its first attempt's %v", p.initialAt, s)
	}
}

// TestLiveSenderSilentFeedBounded feeds a session core records and
// telemetry but no sender records, advancing every millisecond. Nothing
// is ever pending, so no pass runs; retention must still hold both
// buffers to the FlushAfter + 1 s of feed a future sender record could
// use (ends inclusive), not to the whole session.
func TestLiveSenderSilentFeedBounded(t *testing.T) {
	lc := NewLive(Input{SlotDuration: 500 * time.Microsecond}, nil)
	const step = time.Millisecond
	bound := int((lc.FlushAfter+time.Second)/step) + 1
	for i := 0; i < 20000; i++ {
		now := time.Duration(i) * step
		if err := lc.OnCoreRecord(rec(1, uint32(i), packet.KindVideo, now)); err != nil {
			t.Fatal(err)
		}
		lc.OnTB(telemetry.TBRecord{At: now, TBID: uint64(i), UE: 1, TBS: 1200, UsedBytes: 1200})
		if err := lc.Advance(now); err != nil {
			t.Fatal(err)
		}
		if snap := lc.Snapshot(); snap.BufferedCore > bound || snap.BufferedTBs > bound {
			t.Fatalf("at %v: %d core records and %d TBs buffered, bound %d",
				now, snap.BufferedCore, snap.BufferedTBs, bound)
		}
	}
}

// TestLiveMidStreamTrimBoundsCoreOnlyFloods floods a never-draining
// session's core capture with records no sender record will join, one
// every step, on a flow the sender never uses: sequence-less RTCP (all
// Seq 0, as a far party's feedback), and sequenced numbers. The session
// also sends sequence-less NTP through its FIFO, whose core records join
// nothing. A sequence-less record is dropped at the door, and the
// mid-stream trim drops sequenced sightings no view holds once they are a
// second behind the flush horizon, so neither flood piles up for as long
// as the session lives.
func TestLiveMidStreamTrimBoundsCoreOnlyFloods(t *testing.T) {
	for _, flood := range []struct {
		name string
		rec  func(i int, at time.Duration) packet.Record
	}{
		{"sequence-less", func(_ int, at time.Duration) packet.Record { return rec(98, 0, packet.KindRTCP, at) }},
		{"sequenced", func(i int, at time.Duration) packet.Record { return rec(97, uint32(i), packet.KindVideo, at) }},
	} {
		t.Run(flood.name, func(t *testing.T) {
			lc := NewLive(Input{SlotDuration: 500 * time.Microsecond}, nil)
			const n = 2000
			maxCore := 0
			var prev []packet.Record
			var fed tbLog
			for i := 0; i < n; i++ {
				now := time.Duration(i) * 10 * time.Millisecond
				ntp := rec(99, 0, packet.KindCross, now+time.Microsecond)
				ntp.Size = 90
				cur := []packet.Record{rec(1, uint32(i), packet.KindVideo, now), ntp}
				var used units.ByteCount
				for _, r := range cur {
					lc.OnSenderRecord(r)
				}
				// The previous step's packets resolve now; this step's stay
				// in flight, so the session never fully drains.
				for _, r := range prev {
					used += r.Size
					r.LocalTime = now - 4*time.Millisecond
					lc.OnCoreRecord(r)
				}
				lc.OnCoreRecord(flood.rec(i, now-4*time.Millisecond))
				if used > 0 {
					fed.feed(lc, telemetry.TBRecord{At: now - 8*time.Millisecond, TBID: uint64(i), UE: 1, TBS: used, UsedBytes: used})
				}
				prev = cur
				lc.Advance(now)
				assertRederives(t, lc, &fed)
				if lc.Pending() == 0 {
					t.Fatalf("iteration %d: fully drained; this test must exercise the mid-stream path", i)
				}
				maxCore = max(maxCore, lc.nCore)
			}
			if lc.Snapshot().Emitted < n {
				t.Fatalf("emitted %d views over %d steps; the stream is not resolving", lc.Snapshot().Emitted, n)
			}
			if maxCore > 300 {
				t.Fatalf("core buffer grew to %d records over %d steps", maxCore, n)
			}
		})
	}
}

// BenchmarkLiveSteadyState measures the steady-state per-packet cost of
// a never-draining live session. With the prefix trim this is flat —
// each Advance re-correlates only the bounded window — where the
// pre-trim correlator re-scanned the full session history every call.
func BenchmarkLiveSteadyState(b *testing.B) {
	lc := NewLive(Input{SlotDuration: 500 * time.Microsecond}, nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		feedStep(lc, nil, uint32(i))
		lc.Advance(time.Duration(i) * 10 * time.Millisecond)
	}
}

func TestLiveTrimBoundsMemory(t *testing.T) {
	views, _ := runLive(t, 4*time.Second, 200*time.Millisecond)
	if len(views) == 0 {
		t.Fatal("no views")
	}
	// Build a fresh correlator and verify state is trimmed during a long
	// quiet replay.
	lc := NewLive(Input{}, nil)
	lc.FlushAfter = 100 * time.Millisecond
	for i := 0; i < 1000; i++ {
		now := time.Duration(i) * 33 * time.Millisecond
		lc.OnSenderRecord(packet.Record{
			Kind: packet.KindVideo,
			Flow: 1, Seq: uint32(i), Size: 1200, LocalTime: now,
		})
		lc.OnCoreRecord(packet.Record{
			Kind: packet.KindVideo,
			Flow: 1, Seq: uint32(i), Size: 1200, LocalTime: now + 10*time.Millisecond,
		})
		lc.Advance(now + 20*time.Millisecond)
	}
	lc.Advance(40 * time.Second)
	if lc.Pending() != 0 {
		t.Fatalf("pending = %d after final advance", lc.Pending())
	}
	if len(lc.sizes) > 100 || lc.nCore > 100 {
		t.Fatalf("state unbounded: sender=%d core=%d", len(lc.sizes), lc.nCore)
	}
}
