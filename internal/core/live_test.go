package core

import (
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
			lc.OnTB(tbs[tbIdx])
			tbIdx++
		}
		lc.Advance(now)
	}
	return views, bed
}

func TestLiveEmitsAllExactlyOnceInOrder(t *testing.T) {
	views, bed := runLive(t, 2*time.Second, 0)
	if len(views) != len(bed.capSend.Records) {
		t.Fatalf("emitted %d views for %d sent packets", len(views), len(bed.capSend.Records))
	}
	seen := map[pktKey]bool{}
	var lastSent time.Duration
	for _, v := range views {
		k := pktKey{v.Flow, v.Seq, v.Kind}
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

func TestLiveMatchesBatch(t *testing.T) {
	views, bed := runLive(t, 2*time.Second, 0)
	batch := Correlate(bed.input(nil))
	if len(views) == 0 {
		t.Fatal("no live views")
	}
	checked := 0
	for _, v := range views {
		bv, ok := batch.Packet(v.Flow, v.Seq, v.Kind)
		if !ok {
			t.Fatalf("batch missing %d/%d", v.Flow, v.Seq)
		}
		if !v.SeenCore {
			continue
		}
		if v.ULDelay != bv.ULDelay {
			t.Fatalf("UL delay diverges: live %v batch %v", v.ULDelay, bv.ULDelay)
		}
		if !equalIDs(v.TBIDs, bv.TBIDs) {
			t.Fatalf("TB match diverges for seq %d: %v vs %v", v.Seq, v.TBIDs, bv.TBIDs)
		}
		if v.QueueWait != bv.QueueWait || v.HARQDelay != bv.HARQDelay {
			t.Fatalf("attribution diverges for seq %d", v.Seq)
		}
		checked++
	}
	if checked < 100 {
		t.Fatalf("only %d resolved views compared", checked)
	}
}

func TestLiveEmissionLatencyBounded(t *testing.T) {
	// With a short flush horizon, even unresolvable packets are emitted.
	s := []packet.Record{{
		Point: packet.PointSender, PacketID: 1, Kind: packet.KindVideo,
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
		lc.OnSenderRecord(sRec(1, uint32(i), packet.KindVideo, at))
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
	procs, procIdx := lc.sc.procs, lc.sc.procIdx
	if len(procs) != 3 || procs[1].id != 20 {
		t.Fatalf("interleaved telemetry did not trip the sort: %+v", procs)
	}
	for id, j := range procIdx {
		if procs[j].id != id {
			t.Fatalf("procIdx[%d] = %d, but that position holds TB %d", id, j, procs[j].id)
		}
	}

	for i := 0; i < 3; i++ {
		lc.OnCoreRecord(cRec(1, uint32(i), packet.KindVideo, time.Duration(i+11)*time.Millisecond))
	}
	if err := lc.Advance(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if snap := lc.Snapshot(); snap.Pending != 0 || snap.BufferedTBs != 0 {
		t.Fatalf("full drain expected: %+v", snap)
	}
	lc.OnSenderRecord(sRec(1, 3, packet.KindVideo, 11*time.Second))
	if err := lc.Advance(11 * time.Second); err != nil {
		t.Fatal(err)
	}
	if len(lc.sc.procs) != 0 || len(lc.sc.procIdx) != 0 {
		t.Fatalf("TB-less window kept the previous window's table: %d processes, %d indexed",
			len(lc.sc.procs), len(lc.sc.procIdx))
	}
}

// feedStep advances a synthetic never-draining session by one packet:
// seq's sender record arrives now, while the previous packet's TB and
// core arrival resolve it. The freshest packet is therefore always
// unresolved at Advance time, keeping Pending() positive — the regime
// the mid-stream trim exists for. Spacing is 10 ms per seq.
func feedStep(lc *LiveCorrelator, seq uint32) {
	now := time.Duration(seq) * 10 * time.Millisecond
	lc.OnSenderRecord(packet.Record{
		Point: packet.PointSender, Kind: packet.KindVideo,
		Flow: 1, Seq: seq, Size: 1200, LocalTime: now,
	})
	if seq == 0 {
		return
	}
	prev := now - 10*time.Millisecond
	lc.OnTB(telemetry.TBRecord{
		At: prev + 2*time.Millisecond, TBID: uint64(seq), UE: 1,
		TBS: 1200, UsedBytes: 1200, Grant: telemetry.GrantProactive,
	})
	lc.OnCoreRecord(packet.Record{
		Point: packet.PointCore, Kind: packet.KindVideo,
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
	for i := 0; i < n; i++ {
		feedStep(lc, uint32(i))
		// The freshest packet's TB and core record are not fed yet at
		// Advance time: hold it back by advancing only to its send time,
		// inside the flush horizon, so Pending() stays positive.
		lc.Advance(time.Duration(i) * 10 * time.Millisecond)
		if lc.Pending() == 0 && i > 0 {
			t.Fatalf("iteration %d: fully drained; this test must exercise the mid-stream path", i)
		}
		if len(lc.sender) > maxSender {
			maxSender = len(lc.sender)
		}
		if len(lc.core) > maxCore {
			maxCore = len(lc.core)
		}
		if len(lc.tbs) > maxTBs {
			maxTBs = len(lc.tbs)
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

// Sequence-less kinds repeat one (flow, seq, kind) key for the whole
// session (NTP exchanges, all Seq 0), so a never-draining session's
// window can always hold a newer sender record of that key than the ones
// being trimmed. The trim must still release their core records:
// keyed on the newest sender record alone, they would pile up for as long
// as the session lives.
func TestLiveMidStreamTrimBoundsRepeatedKeyCoreRecords(t *testing.T) {
	lc := NewLive(Input{SlotDuration: 500 * time.Microsecond}, nil)
	const n = 2000
	maxCore := 0
	var prev []packet.Record
	for i := 0; i < n; i++ {
		now := time.Duration(i) * 10 * time.Millisecond
		ntp := sRec(99, 0, packet.KindCross, now+time.Microsecond)
		ntp.Size = 90
		cur := []packet.Record{sRec(1, uint32(i), packet.KindVideo, now), ntp}
		var used units.ByteCount
		for _, r := range cur {
			lc.OnSenderRecord(r)
		}
		// The previous step's packets resolve now; this step's stay in
		// flight, so the session never fully drains.
		for _, r := range prev {
			used += r.Size
			r.Point = packet.PointCore
			r.LocalTime = now - 4*time.Millisecond
			lc.OnCoreRecord(r)
		}
		if used > 0 {
			lc.OnTB(telemetry.TBRecord{At: now - 8*time.Millisecond, TBID: uint64(i), UE: 1, TBS: used, UsedBytes: used})
		}
		prev = cur
		lc.Advance(now)
		if lc.Pending() == 0 {
			t.Fatalf("iteration %d: fully drained; this test must exercise the mid-stream path", i)
		}
		if len(lc.core) > maxCore {
			maxCore = len(lc.core)
		}
	}
	if lc.Snapshot().Emitted < n {
		t.Fatalf("emitted %d views over %d steps; the stream is not resolving", lc.Snapshot().Emitted, n)
	}
	if maxCore > 300 {
		t.Fatalf("core buffer grew to %d records over %d steps", maxCore, n)
	}
}

// TestLiveMidStreamTrimMatchesBatch replays a real testbed workload with
// aggressive flushing (forcing many mid-stream trims) and checks every
// emitted view against the full batch correlation — the trim must never
// change what is emitted.
func TestLiveMidStreamTrimMatchesBatch(t *testing.T) {
	views, bed := runLive(t, 3*time.Second, 150*time.Millisecond)
	batch := Correlate(bed.input(nil))
	for _, v := range views {
		bv, ok := batch.Packet(v.Flow, v.Seq, v.Kind)
		if !ok {
			t.Fatalf("batch missing %d/%d", v.Flow, v.Seq)
		}
		if !v.SeenCore {
			continue
		}
		if v.ULDelay != bv.ULDelay || !equalIDs(v.TBIDs, bv.TBIDs) {
			t.Fatalf("seq %d diverged after trim: ul %v/%v tbs %v/%v",
				v.Seq, v.ULDelay, bv.ULDelay, v.TBIDs, bv.TBIDs)
		}
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
		feedStep(lc, uint32(i))
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
			Point: packet.PointSender, Kind: packet.KindVideo,
			Flow: 1, Seq: uint32(i), Size: 1200, LocalTime: now,
		})
		lc.OnCoreRecord(packet.Record{
			Point: packet.PointCore, Kind: packet.KindVideo,
			Flow: 1, Seq: uint32(i), Size: 1200, LocalTime: now + 10*time.Millisecond,
		})
		lc.Advance(now + 20*time.Millisecond)
	}
	lc.Advance(40 * time.Second)
	if lc.Pending() != 0 {
		t.Fatalf("pending = %d after final advance", lc.Pending())
	}
	if len(lc.sender) > 100 || len(lc.core) > 100 {
		t.Fatalf("state unbounded: sender=%d core=%d", len(lc.sender), len(lc.core))
	}
}
