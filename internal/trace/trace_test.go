package trace

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
	"time"

	"athena/internal/packet"
	"athena/internal/telemetry"
)

func sample() ([]packet.Record, []telemetry.TBRecord) {
	recs := []packet.Record{
		{Point: packet.PointSender, PacketID: 1, Kind: packet.KindVideo, Flow: 1, Seq: 0, Size: 1200, LocalTime: 3 * time.Millisecond},
		{Point: packet.PointCore, PacketID: 1, Kind: packet.KindVideo, Flow: 1, Seq: 0, Size: 1200, LocalTime: 9 * time.Millisecond},
	}
	tbs := []telemetry.TBRecord{
		{TBID: 1, UE: 1, At: 4500 * time.Microsecond, TBS: 1600, UsedBytes: 1200, Grant: telemetry.GrantProactive},
		{TBID: 2, UE: 1, At: 7 * time.Millisecond, TBS: 1600, UsedBytes: 0, Grant: telemetry.GrantRequested, HARQRound: 1, Failed: true},
	}
	return recs, tbs
}

func TestMergeOrdersEvents(t *testing.T) {
	recs, tbs := sample()
	evs := Merge(recs, tbs)
	if len(evs) != 4 {
		t.Fatalf("events = %d", len(evs))
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].At < evs[i-1].At {
			t.Fatal("not time-ordered")
		}
	}
	if evs[0].Layer != "net" || evs[1].Layer != "phy" {
		t.Fatalf("interleave wrong: %v %v", evs[0].Layer, evs[1].Layer)
	}
}

func TestJSONRoundTrip(t *testing.T) {
	recs, tbs := sample()
	evs := Merge(recs, tbs)
	var buf bytes.Buffer
	if err := WriteJSON(&buf, evs); err != nil {
		t.Fatal(err)
	}
	back, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(evs, back) {
		t.Fatalf("round trip mismatch:\n%v\n%v", evs, back)
	}
}

func TestReadJSONBad(t *testing.T) {
	if _, err := ReadJSON(strings.NewReader("{oops")); err == nil {
		t.Fatal("expected parse error")
	}
}

func TestPacketCSV(t *testing.T) {
	recs, _ := sample()
	var buf bytes.Buffer
	if err := WritePacketCSV(&buf, recs); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("lines = %d", len(lines))
	}
	if lines[0] != "at_us,point,kind,flow,seq,size" {
		t.Fatalf("header = %q", lines[0])
	}
	if !strings.Contains(lines[1], "1-sender,video") {
		t.Fatalf("row = %q", lines[1])
	}
}

func TestTBCSV(t *testing.T) {
	_, tbs := sample()
	var buf bytes.Buffer
	if err := WriteTBCSV(&buf, tbs); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "Proactive") || !strings.Contains(out, "Requested") {
		t.Fatalf("grants missing: %q", out)
	}
	if !strings.Contains(out, "true") {
		t.Fatal("failed flag missing")
	}
}

func TestSummary(t *testing.T) {
	const want = `4 events (2 net, 2 phy) spanning 9ms
packets per capture point:
  1-sender     1
  2-core       1
TB attempts per grant kind:
  Proactive    1
  Requested    1
failed attempts: 1; retransmissions: 1`
	recs, tbs := sample()
	evs := Merge(recs, tbs)
	for i := 0; i < 10; i++ { // map iteration order must not leak
		if s := Summary(evs); s != want {
			t.Fatalf("summary =\n%s\nwant\n%s", s, want)
		}
	}
}
