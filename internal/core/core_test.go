package core

import (
	"testing"
	"time"

	"athena/internal/clock"
	"athena/internal/packet"
	"athena/internal/ran"
	"athena/internal/sim"
	"athena/internal/telemetry"
)

// testbed runs a small RAN session and returns the captures, telemetry and
// the sent packets (for ground-truth scoring).
type testbed struct {
	s       *sim.Simulator
	capSend *packet.Capture
	capCore *packet.Capture
	r       *ran.RAN
	sent    []*packet.Packet
}

// run builds a cell with the given scheduler/BLER, pushes video bursts and
// audio singles for dur, and returns the bed.
func runBed(t testing.TB, sched ran.SchedulerKind, bler float64, senderClk, coreClk *clock.HostClock, dur time.Duration) *testbed {
	t.Helper()
	s := sim.New(1)
	cfg := ran.Defaults()
	cfg.BLER = bler
	bed := &testbed{s: s}
	bed.capCore = packet.NewCapture(coreClk, s.Now, nil)
	bed.r = ran.New(s, cfg, bed.capCore)
	ue := bed.r.AttachUE(1, sched)
	bed.capSend = packet.NewCapture(senderClk, s.Now, ue)

	var alloc packet.Alloc
	rtpSeq := uint16(0)
	frame := uint32(0)
	s.Every(3*time.Millisecond, 33*time.Millisecond, func() {
		if s.Now() > dur-50*time.Millisecond {
			return
		}
		frame++
		for i := 0; i < 4; i++ {
			p := alloc.New(packet.KindVideo, 10, 1200, s.Now())
			p.Seq = uint32(rtpSeq)
			p.Payload = fakeRTP{ssrc: 10, ts: frame * 3000, marker: i == 3}
			rtpSeq++
			bed.sent = append(bed.sent, p)
			bed.capSend.Handle(p)
		}
	})
	audioSeq := uint16(0)
	s.Every(5*time.Millisecond, 20*time.Millisecond, func() {
		if s.Now() > dur-50*time.Millisecond {
			return
		}
		p := alloc.New(packet.KindAudio, 20, 120, s.Now())
		p.Seq = uint32(audioSeq)
		p.Payload = fakeRTP{ssrc: 20, ts: uint32(s.Now() / time.Millisecond * 48), marker: true}
		audioSeq++
		bed.sent = append(bed.sent, p)
		bed.capSend.Handle(p)
	})
	s.RunUntil(dur + 500*time.Millisecond)
	return bed
}

type fakeRTP struct {
	ssrc   uint32
	ts     uint32
	marker bool
}

func (f fakeRTP) RTPHeaderInfo() (uint32, uint32, bool) {
	return f.ssrc, f.ts, f.marker
}

func (b *testbed) input(offsets map[packet.Point]time.Duration) Input {
	return Input{
		Sender:       b.capSend.Records,
		Core:         b.capCore.Records,
		TBs:          b.r.Telemetry.ForUE(1),
		Offsets:      offsets,
		SlotDuration: b.r.Cfg.SlotDuration,
		CoreDelay:    b.r.Cfg.CoreDelay,
	}
}

func TestCorrelateULDelays(t *testing.T) {
	bed := runBed(t, ran.SchedCombined, 0, clock.Perfect("s"), clock.Perfect("c"), 2*time.Second)
	rep := Correlate(bed.input(nil))
	if len(rep.Packets) == 0 {
		t.Fatal("no packets")
	}
	video := rep.ULDelaysMS(packet.KindVideo)
	if len(video) == 0 {
		t.Fatal("no video delays")
	}
	for _, d := range video {
		if d <= 0 || d > 50 {
			t.Fatalf("implausible UL delay %v ms", d)
		}
	}
}

func TestCorrelateCorrectsClockOffsets(t *testing.T) {
	// Core clock runs 50 ms ahead; uncorrected delays would inflate.
	coreClk := &clock.HostClock{Name: "core", Offset: 50 * time.Millisecond}
	bed := runBed(t, ran.SchedCombined, 0, clock.Perfect("s"), coreClk, time.Second)

	raw := Correlate(bed.input(nil))
	fixed := Correlate(bed.input(map[packet.Point]time.Duration{
		packet.PointCore: 50 * time.Millisecond,
	}))
	rawMean := raw.DelaySummary(packet.KindVideo).Mean
	fixedMean := fixed.DelaySummary(packet.KindVideo).Mean
	if rawMean < fixedMean+45 {
		t.Fatalf("offset correction ineffective: raw=%v fixed=%v", rawMean, fixedMean)
	}
	if fixedMean <= 0 || fixedMean > 30 {
		t.Fatalf("corrected mean = %v ms", fixedMean)
	}
}

func TestPacketTBMatchingExact(t *testing.T) {
	bed := runBed(t, ran.SchedCombined, 0, clock.Perfect("s"), clock.Perfect("c"), 3*time.Second)
	rep := Correlate(bed.input(nil))
	acc := rep.MatchAccuracy(bed.capSend.Records, bed.r.Telemetry.Records)
	if acc < 0.99 {
		t.Fatalf("TB match accuracy = %.3f, want ~1.0", acc)
	}
}

func TestPacketTBMatchingDegradesWithSyncError(t *testing.T) {
	bed := runBed(t, ran.SchedCombined, 0, clock.Perfect("s"), clock.Perfect("c"), 3*time.Second)
	// Lie about the sender offset: packets appear sent 40 ms later than
	// they were, violating causality for their true TBs.
	rep := Correlate(bed.input(map[packet.Point]time.Duration{
		packet.PointSender: -40 * time.Millisecond,
	}))
	acc := rep.MatchAccuracy(bed.capSend.Records, bed.r.Telemetry.Records)
	good := Correlate(bed.input(nil)).MatchAccuracy(bed.capSend.Records, bed.r.Telemetry.Records)
	if acc >= good {
		t.Fatalf("sync error should hurt matching: err=%.3f good=%.3f", acc, good)
	}
}

func TestFrameGroupingAndSpread(t *testing.T) {
	bed := runBed(t, ran.SchedCombined, 0, clock.Perfect("s"), clock.Perfect("c"), 2*time.Second)
	rep := Correlate(bed.input(nil))
	videoFrames := 0
	for _, f := range rep.Frames() {
		if f.Kind != packet.KindVideo {
			continue
		}
		videoFrames++
		if f.Packets != 4 {
			t.Fatalf("frame has %d packets, want 4", f.Packets)
		}
		if f.SpreadSender != 0 {
			t.Fatalf("burst-sent frame has sender spread %v", f.SpreadSender)
		}
		if !f.SeenCore {
			continue
		}
		// Fig 5: spread quantized to the 2.5 ms UL period.
		if f.SpreadCore%(2500*time.Microsecond) != 0 {
			t.Fatalf("core spread %v not a 2.5ms multiple", f.SpreadCore)
		}
		if f.FrameDelay <= 0 {
			t.Fatal("frame delay not computed")
		}
	}
	if videoFrames < 30 {
		t.Fatalf("only %d video frames", videoFrames)
	}
	sender, coreSp := rep.SpreadsMS()
	if len(sender) != len(coreSp) || len(sender) == 0 {
		t.Fatal("SpreadsMS outputs mismatched")
	}
}

func TestHARQAttribution(t *testing.T) {
	bed := runBed(t, ran.SchedCombined, 0.4, clock.Perfect("s"), clock.Perfect("c"), 3*time.Second)
	rep := Correlate(bed.input(nil))
	attr := rep.Attribute()
	if attr.RetxAffected == 0 {
		t.Fatal("no packets attributed HARQ inflation at BLER=0.4")
	}
	for _, v := range rep.Packets {
		if v.HARQDelay%(10*time.Millisecond) != 0 {
			t.Fatalf("HARQ attribution %v not a 10ms multiple", v.HARQDelay)
		}
	}
	if attr.MeanMS(CauseHARQ) <= 0 {
		t.Fatal("mean HARQ contribution zero")
	}
}

func TestBSRAttribution(t *testing.T) {
	bed := runBed(t, ran.SchedBSROnly, 0, clock.Perfect("s"), clock.Perfect("c"), 2*time.Second)
	rep := Correlate(bed.input(nil))
	attr := rep.Attribute()
	if attr.BSRServed == 0 {
		t.Fatal("BSR-only cell should attribute BSR waits")
	}
	if attr.MeanMS(CauseBSR) < 5 {
		t.Fatalf("mean BSR wait %v ms too small for BSR-only scheduling", attr.MeanMS(CauseBSR))
	}
	if attr.String() == "" {
		t.Fatal("attribution render empty")
	}
}

func TestAttributionMatchesGroundTruth(t *testing.T) {
	bed := runBed(t, ran.SchedCombined, 0, clock.Perfect("s"), clock.Perfect("c"), 2*time.Second)
	rep := Correlate(bed.input(nil))
	sent := make(map[rawKey]*packet.Packet, len(bed.sent))
	for _, p := range bed.sent {
		sent[rawKey{p.Flow, p.Seq, p.Kind}] = p
	}
	checked := 0
	for _, v := range rep.Packets {
		p, ok := sent[rawKey{v.Flow, v.Seq, v.Kind}]
		if !ok || !v.SeenCore {
			continue
		}
		id, gt := p.ID, p.GroundTruth
		// QueueWait should match the simulator's record within a slot.
		diff := v.QueueWait - gt.UEQueueWait
		if diff < 0 {
			diff = -diff
		}
		if diff > time.Millisecond {
			t.Fatalf("QueueWait %v vs truth %v (packet %d)", v.QueueWait, gt.UEQueueWait, id)
		}
		if (v.BSRWait > 0) != (gt.BSRWait > 0) {
			t.Fatalf("BSR attribution mismatch for packet %d: %v vs %v", id, v.BSRWait, gt.BSRWait)
		}
		checked++
	}
	if checked < 100 {
		t.Fatalf("only %d packets checked", checked)
	}
}

func TestReceiverJoinAndSFUAttribution(t *testing.T) {
	// Synthetic three-point capture: known WAN + SFU delays.
	var senderRecs, coreRecs, recvRecs []packet.Record
	for i := 0; i < 10; i++ {
		base := time.Duration(i) * 20 * time.Millisecond
		senderRecs = append(senderRecs, packet.Record{
			PacketID: uint64(i), Kind: packet.KindVideo,
			Flow: 1, Seq: uint32(i), Size: 1200, LocalTime: base, SSRC: 1, RTPTime: uint32(i),
		})
		coreRecs = append(coreRecs, packet.Record{
			PacketID: uint64(i), Kind: packet.KindVideo,
			Flow: 1, Seq: uint32(i), Size: 1200, LocalTime: base + 10*time.Millisecond,
		})
		recvRecs = append(recvRecs, packet.Record{
			PacketID: uint64(i), Kind: packet.KindVideo,
			Flow: 1, Seq: uint32(i), Size: 1200, LocalTime: base + 10*time.Millisecond + 25*time.Millisecond,
		})
	}
	rep := Correlate(Input{
		Sender: senderRecs, Core: coreRecs, Receiver: recvRecs,
		ProbeOWDBaseline: 20 * time.Millisecond,
	})
	for _, v := range rep.Packets {
		if !v.SeenRecv {
			t.Fatal("receiver record not joined")
		}
		if v.WANDelay != 25*time.Millisecond {
			t.Fatalf("WANDelay = %v", v.WANDelay)
		}
		if v.SFUDelay != 5*time.Millisecond {
			t.Fatalf("SFUDelay = %v", v.SFUDelay)
		}
	}
}

func TestReconstructTBsAbandoned(t *testing.T) {
	lc := NewLive(Input{}, nil)
	lc.OnTB(telemetry.TBRecord{TBID: 1, At: 0, UsedBytes: 100, HARQRound: 0, Failed: true})
	lc.OnTB(telemetry.TBRecord{TBID: 1, At: 10 * time.Millisecond, UsedBytes: 100, HARQRound: 1, Failed: true})
	procs := lc.procs
	if len(procs) != 1 || !procs[0].abandoned {
		t.Fatalf("abandoned TB not detected: %+v", procs)
	}
	lc.OnTB(telemetry.TBRecord{TBID: 1, At: 20 * time.Millisecond, UsedBytes: 100, HARQRound: 2, Failed: false})
	if len(procs) != 1 || procs[0].abandoned {
		t.Fatal("recovered TB still marked abandoned")
	}
	if procs[0].finalAt != 20*time.Millisecond || procs[0].rounds != 2 {
		t.Fatalf("HARQ lifecycle wrong: %+v", procs[0])
	}
}

func TestEqualIDs(t *testing.T) {
	if !equalIDs([]uint64{1, 2}, []uint64{2, 1}) {
		t.Fatal("order should not matter")
	}
	if equalIDs([]uint64{1}, []uint64{1, 1}) {
		t.Fatal("multiplicity must match")
	}
	if equalIDs([]uint64{1, 3}, []uint64{1, 2}) {
		t.Fatal("different sets equal")
	}
}
