package packet

import (
	"testing"
	"time"
	"unsafe"

	"athena/internal/clock"
)

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		KindVideo: "video", KindAudio: "audio", KindRTCP: "rtcp",
		KindICMP: "icmp", KindCross: "cross", KindUnknown: "unknown",
		Kind(99): "unknown",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
}

func TestAllocUniqueIDs(t *testing.T) {
	var a Alloc
	seen := map[uint64]bool{}
	for i := 0; i < 1000; i++ {
		p := a.New(KindVideo, 1, 1200, 0)
		if seen[p.ID] {
			t.Fatalf("duplicate id %d", p.ID)
		}
		seen[p.ID] = true
	}
}

func TestAllocSetsFields(t *testing.T) {
	var a Alloc
	p := a.New(KindAudio, 7, 300, 5*time.Millisecond)
	if p.Kind != KindAudio || p.Flow != 7 || p.Size != 300 || p.SentAt != 5*time.Millisecond {
		t.Fatalf("fields wrong: %+v", p)
	}
	if p.String() == "" {
		t.Fatal("String empty")
	}
}

func TestPointString(t *testing.T) {
	for p, want := range map[Point]string{
		PointSender: "1-sender", PointCore: "2-core",
		PointSFU: "3*-sfu", PointReceiver: "4-receiver", Point(9): "?",
	} {
		if got := p.String(); got != want {
			t.Errorf("Point(%d) = %q, want %q", p, got, want)
		}
	}
}

type fakeRTP struct{}

func (fakeRTP) RTPHeaderInfo() (uint32, uint32, bool) {
	return 0xabcd, 90000, true
}

func TestCaptureRecordsWithLocalClock(t *testing.T) {
	hc := &clock.HostClock{Name: "core", Offset: 3 * time.Millisecond}
	now := time.Duration(0)
	var forwarded []*Packet
	cap := NewCapture(hc, func() time.Duration { return now },
		HandlerFunc(func(p *Packet) { forwarded = append(forwarded, p) }))

	var a Alloc
	p := a.New(KindVideo, 1, 1200, 0)
	p.Payload = fakeRTP{}
	now = 10 * time.Millisecond
	cap.Handle(p)

	if len(cap.Records) != 1 {
		t.Fatalf("records = %d", len(cap.Records))
	}
	r := cap.Records[0]
	if r.LocalTime != 13*time.Millisecond {
		t.Errorf("LocalTime = %v, want 13ms (10ms true + 3ms offset)", r.LocalTime)
	}
	if r.SSRC != 0xabcd || r.RTPTime != 90000 || !r.Marker {
		t.Errorf("RTP fields not copied: %+v", r)
	}
	if len(forwarded) != 1 || forwarded[0] != p {
		t.Error("packet not forwarded")
	}
}

func TestCaptureNilNextDiscards(t *testing.T) {
	cap := NewCapture(clock.Perfect("s"), func() time.Duration { return 0 }, nil)
	var a Alloc
	cap.Handle(a.New(KindVideo, 1, 1200, 0)) // must not panic
	if len(cap.Records) != 1 {
		t.Fatal("record missing")
	}
}

func TestDiscardHandler(t *testing.T) {
	var a Alloc
	Discard.Handle(a.New(KindCross, 1, 100, 0)) // must not panic
}

func TestECNCodepoints(t *testing.T) {
	if ECNNotECT != 0 || ECNECT1 != 1 || ECNECT0 != 2 || ECNCE != 3 {
		t.Fatal("ECN codepoints must match RFC 3168 encoding")
	}
}

// A cell run keeps one Record per packet per capture point; its fields
// stay ordered so that it packs into 48 bytes.
func TestRecordSize(t *testing.T) {
	if n := unsafe.Sizeof(Record{}); n != 48 {
		t.Fatalf("Record is %d bytes, want 48", n)
	}
}
