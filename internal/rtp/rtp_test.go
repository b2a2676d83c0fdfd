package rtp

import (
	"encoding/binary"
	"slices"
	"testing"
	"time"
)

func TestWireSizeMatchesMarshal(t *testing.T) {
	for _, p := range []*Packet{
		{PayloadLen: 10},
		{HasSVC: true, PayloadLen: 10},
		{HasSVC: true, HasMeta: true, HasTWSeq: true, PayloadLen: 1160},
		{HasMeta: true, PayloadLen: 0},
	} {
		if got := len(p.Marshal()); got != p.WireSize() {
			t.Errorf("WireSize=%d but Marshal len=%d for %+v", p.WireSize(), got, p)
		}
	}
}

// The receiver sizes each RTCP packet from WireSize alone; the report
// marshalled in full must be exactly that long.
func TestFeedbackWireSizeMatchesMarshal(t *testing.T) {
	for _, n := range []int{0, 1, 40} {
		f := &Feedback{SSRC: 7, Reports: make([]ArrivalInfo, n)}
		for i := range f.Reports {
			f.Reports[i] = ArrivalInfo{Seq: uint16(i), Received: i%3 != 0, Arrival: time.Duration(i) * time.Millisecond, ECE: i%5 == 0}
		}
		if got := len(f.Marshal()); got != f.WireSize() {
			t.Errorf("%d reports: WireSize=%d but Marshal len=%d", n, f.WireSize(), got)
		}
	}
}

func TestSVCLayerString(t *testing.T) {
	for l, want := range map[SVCLayer]string{
		LayerBase:               "Base",
		LayerLowFPSEnhancement:  "Low-FPS Enhanc.",
		LayerHighFPSEnhancement: "High-FPS Enhanc.",
		LayerAudio:              "Audio",
	} {
		if l.String() != want {
			t.Errorf("%d -> %q", l, l.String())
		}
	}
	if SVCLayer(9).String() != "SVCLayer(9)" {
		t.Error("unknown layer formatting")
	}
}

func TestRTPHeaderInfo(t *testing.T) {
	p := &Packet{SSRC: 5, Seq: 6, Timestamp: 7, Marker: true}
	if ssrc, ts, m := p.RTPHeaderInfo(); ssrc != 5 || ts != 7 || !m {
		t.Fatal("RTPHeaderInfo mismatch")
	}
}

func TestPacketizerSplitsAtMTU(t *testing.T) {
	z := NewPacketizer(1, PayloadTypeVideo, 90000, 1000)
	pkts := z.Packetize(Unit{Bytes: 2500, PTSSeconds: 1, SVC: LayerBase})
	if len(pkts) != 3 {
		t.Fatalf("got %d packets, want 3", len(pkts))
	}
	if pkts[0].PayloadLen != 1000 || pkts[1].PayloadLen != 1000 || pkts[2].PayloadLen != 500 {
		t.Fatalf("sizes: %d %d %d", pkts[0].PayloadLen, pkts[1].PayloadLen, pkts[2].PayloadLen)
	}
	// Only last packet marked.
	if pkts[0].Marker || pkts[1].Marker || !pkts[2].Marker {
		t.Fatal("marker placement wrong")
	}
	// Shared timestamp, sequential seqs, shared frame id.
	for i, p := range pkts {
		if p.Timestamp != 90000 {
			t.Errorf("ts[%d] = %d", i, p.Timestamp)
		}
		if p.Seq != uint16(i) {
			t.Errorf("seq[%d] = %d", i, p.Seq)
		}
		if p.FrameID != pkts[0].FrameID {
			t.Errorf("frame id differs")
		}
		if !p.HasSVC || p.SVC != LayerBase {
			t.Errorf("SVC missing on %d", i)
		}
	}
}

func TestPacketizerSeqWraps(t *testing.T) {
	z := NewPacketizer(1, PayloadTypeAudio, 48000, 1000)
	z.seq = 65534
	pkts := z.Packetize(Unit{Bytes: 2500})
	if pkts[0].Seq != 65534 || pkts[1].Seq != 65535 || pkts[2].Seq != 0 {
		t.Fatalf("wrap: %d %d %d", pkts[0].Seq, pkts[1].Seq, pkts[2].Seq)
	}
}

func TestPacketizerMetaOnFirstOnly(t *testing.T) {
	z := NewPacketizer(1, PayloadTypeVideo, 90000, 1000)
	z.AttachMeta = true
	z.Meta = MediaMeta{FrameRateFPS: 30}
	pkts := z.Packetize(Unit{Bytes: 2100})
	if !pkts[0].HasMeta || pkts[1].HasMeta || pkts[2].HasMeta {
		t.Fatal("meta should be on first packet only")
	}
}

func TestPacketizeEmpty(t *testing.T) {
	z := NewPacketizer(1, PayloadTypeVideo, 90000, 1000)
	if got := z.Packetize(Unit{Bytes: 0}); got != nil {
		t.Fatal("empty unit should produce no packets")
	}
}

func TestPacketizerDistinctFrameIDs(t *testing.T) {
	z := NewPacketizer(1, PayloadTypeVideo, 90000, 1000)
	a := z.Packetize(Unit{Bytes: 100, PTSSeconds: 0})
	b := z.Packetize(Unit{Bytes: 100, PTSSeconds: 0.033})
	if a[0].FrameID == b[0].FrameID {
		t.Fatal("frame ids should differ")
	}
}

func TestPacketizerDefaultMTU(t *testing.T) {
	z := NewPacketizer(1, PayloadTypeVideo, 90000, 0)
	if z.MTUPayload <= 0 {
		t.Fatal("default MTU not applied")
	}
}

func TestFeedbackBuilder(t *testing.T) {
	b := NewFeedbackBuilder(9)
	if b.Flush() != nil {
		t.Fatal("flush of empty builder should be nil")
	}
	b.OnArrival(1, time.Millisecond, false)
	// Seq 2 never arrives; its gap expires after the reorder grace.
	b.OnArrival(3, 2*time.Millisecond, true)
	if b.Pending() != 2 {
		t.Fatalf("Pending = %d (gap must not report before grace)", b.Pending())
	}
	b.ExpireGaps(2*time.Millisecond + b.ReorderGrace)
	f := b.Flush()
	if f == nil || f.SSRC != 9 || len(f.Reports) != 3 {
		t.Fatalf("flush: %+v", f)
	}
	var lostSeq uint16
	lost := 0
	for _, rep := range f.Reports {
		if !rep.Received {
			lost++
			lostSeq = rep.Seq
		} else if rep.Seq == 3 && !rep.ECE {
			t.Error("ECE lost")
		}
	}
	if lost != 1 || lostSeq != 2 {
		t.Errorf("gap not reported lost exactly once: %+v", f.Reports)
	}
	if b.Pending() != 0 || b.Flush() != nil {
		t.Error("builder not reset")
	}
}

func TestFeedbackBuilderLateArrivalCancelsLoss(t *testing.T) {
	b := NewFeedbackBuilder(9)
	b.OnArrival(1, time.Millisecond, false)
	b.OnArrival(3, 2*time.Millisecond, false) // gap: 2
	// Seq 2 arrives 20 ms later (HARQ retransmission): within grace.
	b.OnArrival(2, 22*time.Millisecond, false)
	b.ExpireGaps(time.Second)
	f := b.Flush()
	for _, rep := range f.Reports {
		if !rep.Received {
			t.Fatalf("reordered packet reported lost: %+v", rep)
		}
	}
}

func TestFeedbackBuilderReorderNoFalseGap(t *testing.T) {
	b := NewFeedbackBuilder(9)
	b.OnArrival(5, time.Millisecond, false)
	// Seq 4 arrives late (reordered): no gap opened, just the arrival.
	b.OnArrival(4, 2*time.Millisecond, false)
	b.ExpireGaps(time.Second)
	f := b.Flush()
	if len(f.Reports) != 2 {
		t.Fatalf("reports = %d, want 2", len(f.Reports))
	}
	for _, r := range f.Reports {
		if !r.Received {
			t.Fatalf("false loss for reordered packet: %+v", r)
		}
	}
}

func TestFeedbackBuilderGapCap(t *testing.T) {
	b := NewFeedbackBuilder(9)
	b.OnArrival(0, time.Millisecond, false)
	// A wild discontinuity must not flood the state.
	b.OnArrival(20000, 2*time.Millisecond, false)
	b.ExpireGaps(time.Second)
	if b.Pending() > maxGapSynthesis+2 {
		t.Fatalf("gap flood: %d pending", b.Pending())
	}
}

func TestFeedbackBuilderSeqWrap(t *testing.T) {
	b := NewFeedbackBuilder(9)
	b.OnArrival(65534, time.Millisecond, false)
	b.OnArrival(1, 2*time.Millisecond, false) // wraps; 65535 and 0 missing
	b.ExpireGaps(time.Second)
	f := b.Flush()
	lost := 0
	for _, r := range f.Reports {
		if !r.Received {
			lost++
			if r.Seq != 65535 && r.Seq != 0 {
				t.Fatalf("wrong synthesized seq %d", r.Seq)
			}
		}
	}
	if lost != 2 {
		t.Fatalf("lost = %d, want 2 across the wrap", lost)
	}
}

// One builder state yields one report: expired gaps are reported in
// sequence order, oldest first across the wrap, not in map order.
func TestFeedbackBuilderLossOrderDeterministic(t *testing.T) {
	build := func() *Feedback {
		b := NewFeedbackBuilder(9)
		at := time.Millisecond
		// Gaps on both sides of the wrap, some closed by late arrivals.
		for _, seq := range []uint16{65500, 65510, 65531, 3, 9, 40, 12, 70} {
			b.OnArrival(seq, at, false)
			at += time.Millisecond
		}
		b.ExpireGaps(time.Second)
		return b.Flush()
	}
	want := build()
	var lost []uint16
	for _, r := range want.Reports {
		if !r.Received {
			lost = append(lost, r.Seq)
		}
	}
	if len(lost) < 50 {
		t.Fatalf("%d losses; the input should open more than 50 gaps", len(lost))
	}
	for i := 1; i < len(lost); i++ {
		if !seqNewer(lost[i], lost[i-1]) {
			t.Fatalf("loss %d (seq %d) reported after seq %d", i, lost[i], lost[i-1])
		}
	}
	for run := 0; run < 50; run++ {
		if got := build(); !slices.Equal(got.Reports, want.Reports) {
			t.Fatalf("run %d: reports differ from the first run", run)
		}
	}
}

func TestSeqNewer(t *testing.T) {
	if !seqNewer(2, 1) || seqNewer(1, 2) || seqNewer(5, 5) {
		t.Fatal("basic order")
	}
	if !seqNewer(0, 65535) {
		t.Fatal("wrap order")
	}
}

// Marshal serializes the packet: the oracle TestWireSizeMatchesMarshal
// holds WireSize to. The payload is emitted as zeros of PayloadLen bytes
// (media content is modeled separately).
func (p *Packet) Marshal() []byte {
	buf := make([]byte, p.WireSize())
	b0 := byte(Version << 6)
	extSize := p.extWireSize()
	if extSize > 0 {
		b0 |= 1 << 4
	}
	buf[0] = b0
	b1 := p.PayloadType & 0x7f
	if p.Marker {
		b1 |= 0x80
	}
	buf[1] = b1
	binary.BigEndian.PutUint16(buf[2:], p.Seq)
	binary.BigEndian.PutUint32(buf[4:], p.Timestamp)
	binary.BigEndian.PutUint32(buf[8:], p.SSRC)

	off := HeaderSize
	if extSize > 0 {
		// Profile 0xBEDE marks the one-byte extension form.
		binary.BigEndian.PutUint16(buf[off:], 0xBEDE)
		words := (extSize - 4) / 4
		binary.BigEndian.PutUint16(buf[off+2:], uint16(words))
		off += 4
		if p.HasSVC {
			buf[off] = byte(ExtIDSVCLayer<<4) | 0 // len-1 = 0 -> 1 byte
			buf[off+1] = byte(p.SVC)
			off += 2
		}
		if p.HasMeta {
			buf[off] = byte(ExtIDMediaMeta<<4) | 7 // 8 bytes
			buf[off+1] = p.Meta.Streams
			buf[off+2] = p.Meta.FrameRateFPS
			binary.BigEndian.PutUint16(buf[off+3:], p.Meta.AudioRateHz)
			binary.BigEndian.PutUint32(buf[off+5:], p.Meta.FrameSizeBytes)
			off += 9
		}
		if p.HasTWSeq {
			buf[off] = byte(ExtIDTWSeq<<4) | 1 // 2 bytes
			binary.BigEndian.PutUint16(buf[off+1:], p.TWSeq)
		}
		// Remaining bytes up to the padded boundary are zero padding.
	}
	// Payload bytes are already zero.
	return buf
}

// Marshal serializes the report in the format Feedback.WireSize
// documents, appending field by field so its length owes nothing to
// WireSize: the oracle TestFeedbackWireSizeMatchesMarshal holds WireSize
// to.
func (f *Feedback) Marshal() []byte {
	buf := binary.BigEndian.AppendUint32(nil, f.SSRC)
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(f.Reports)))
	for _, r := range f.Reports {
		buf = binary.BigEndian.AppendUint16(buf, r.Seq)
		var flags byte
		if r.Received {
			flags |= 1
		}
		if r.ECE {
			flags |= 2
		}
		buf = append(buf, flags)
		buf = binary.BigEndian.AppendUint64(buf, uint64(r.Arrival))
	}
	return buf
}
