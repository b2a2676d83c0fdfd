package telemetry

import (
	"testing"
	"time"
	"unsafe"
)

func TestGrantKindString(t *testing.T) {
	if GrantProactive.String() != "Proactive" || GrantRequested.String() != "Requested" ||
		GrantAppAware.String() != "AppAware" || GrantOracle.String() != "Oracle" {
		t.Fatal("grant names wrong")
	}
	if GrantKind(9).String() != "?" {
		t.Fatal("unknown kind")
	}
}

func TestRecordPredicates(t *testing.T) {
	r := TBRecord{UsedBytes: 10, HARQRound: 0}
	if !r.Used() || r.IsRetx() {
		t.Fatal("predicates wrong for used initial tx")
	}
	r = TBRecord{UsedBytes: 0, HARQRound: 2}
	if r.Used() || !r.IsRetx() {
		t.Fatal("predicates wrong for empty retx")
	}
}

func TestCollectorFilters(t *testing.T) {
	var c Collector
	c.Add(TBRecord{TBID: 1, UE: 1, At: time.Millisecond})
	c.Add(TBRecord{TBID: 2, UE: 2, At: 2 * time.Millisecond})
	c.Add(TBRecord{TBID: 3, UE: 1, At: 3 * time.Millisecond})
	if got := c.ForUE(1); len(got) != 2 || got[0].TBID != 1 || got[1].TBID != 3 {
		t.Fatalf("ForUE: %v", got)
	}
	if got := c.Window(2*time.Millisecond, 3*time.Millisecond); len(got) != 1 || got[0].TBID != 2 {
		t.Fatalf("Window: %v", got)
	}
}

func TestSnifferViewStripsAndCopies(t *testing.T) {
	var c Collector
	c.Add(TBRecord{TBID: 1, PacketIDs: []uint64{5, 6}})
	view := c.SnifferView()
	if view[0].PacketIDs != nil {
		t.Fatal("view leaks ground truth")
	}
	if c.Records[0].PacketIDs == nil {
		t.Fatal("original mutated")
	}
	view[0].TBID = 99
	if c.Records[0].TBID != 1 {
		t.Fatal("view aliases original")
	}
}

func TestWasteOf(t *testing.T) {
	recs := []TBRecord{
		{TBS: 1000, UsedBytes: 1000},
		{TBS: 1000, UsedBytes: 0},               // empty initial
		{TBS: 1000, UsedBytes: 0, HARQRound: 1}, // empty retx
		{TBS: 1000, UsedBytes: 500},
	}
	w := WasteOf(recs)
	if w.TBs != 4 || w.TotalTBS != 4000 || w.UsedBytes != 1500 {
		t.Fatalf("waste: %+v", w)
	}
	if w.EmptyTBs != 2 || w.EmptyRetx != 1 {
		t.Fatalf("empty counts: %+v", w)
	}
	if got := w.Efficiency(); got != 0.375 {
		t.Fatalf("Efficiency = %v", got)
	}
}

func TestWasteEmptyEfficiency(t *testing.T) {
	if WasteOf(nil).Efficiency() != 1 {
		t.Fatal("empty waste efficiency should be 1")
	}
}

// A cell run keeps one TBRecord per TB attempt; on 64-bit targets its
// fields stay ordered so that it packs into 72 bytes.
func TestTBRecordSize(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("the 72-byte layout is a 64-bit one")
	}
	if n := unsafe.Sizeof(TBRecord{}); n != 72 {
		t.Fatalf("TBRecord is %d bytes, want 72", n)
	}
}
