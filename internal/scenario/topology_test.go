package scenario

import (
	"testing"
	"time"
)

func shortMultiTopology(n int) Topology {
	top := NewTopology(n)
	top.Duration = 4 * time.Second
	return top
}

// TestTopologyPerUEIsolation checks that each UE's report covers exactly
// its own flows, that every UE actually got media through the shared
// cell, and that per-packet uplink+WAN attribution reassembles each
// packet's end-to-end one-way delay.
func TestTopologyPerUEIsolation(t *testing.T) {
	tr := RunTopology(shortMultiTopology(3))
	if len(tr.UEs) != 3 {
		t.Fatalf("got %d UE results, want 3", len(tr.UEs))
	}
	for i, u := range tr.UEs {
		own := make(map[uint32]bool)
		for _, f := range u.Flows.All() {
			own[f] = true
		}
		if len(u.Report.Packets) == 0 {
			t.Fatalf("UE %d correlated zero packets", i)
		}
		delivered := 0
		for _, v := range u.Report.Packets {
			if !own[v.Flow] {
				t.Fatalf("UE %d report contains foreign flow %d", i, v.Flow)
			}
			if v.SeenCore && v.SeenRecv {
				delivered++
				if got, want := v.ULDelay+v.WANDelay, v.ReceiverAt-v.SentAt; got != want {
					t.Fatalf("UE %d flow %d seq %d: ULDelay+WANDelay = %v, end-to-end OWD = %v",
						i, v.Flow, v.Seq, got, want)
				}
			}
		}
		if delivered == 0 {
			t.Fatalf("UE %d delivered zero packets end to end", i)
		}
		byFlow := u.Report.AttributeByFlow()
		for f := range byFlow {
			if !own[f] {
				t.Fatalf("UE %d attribution contains foreign flow %d", i, f)
			}
		}
		if _, ok := byFlow[u.Flows.Video]; !ok {
			t.Fatalf("UE %d has no uplink attribution for its video flow %d", i, u.Flows.Video)
		}
	}
	// The UEs share one cell: all three must be attached to the same RAN.
	if tr.RAN == nil {
		t.Fatal("multi-UE topology did not build a RAN")
	}
}

// TestTopologyFlowIDsDisjoint checks the flow numbering scheme keeps
// every UE's flows, the prober and cross traffic disjoint for realistic
// sizes.
func TestTopologyFlowIDsDisjoint(t *testing.T) {
	seen := map[uint32]int{proberFlow: -1}
	for i := 0; i < 8; i++ {
		for _, f := range UEFlowIDs(i).All() {
			if prev, dup := seen[f]; dup {
				t.Fatalf("flow %d assigned to both UE %d and UE %d", f, prev, i)
			}
			seen[f] = i
		}
	}
	top := Topology{UEs: make([]UESpec, 8)}
	base := top.crossFlowBase()
	for f := range seen {
		if f >= base && f < base+64 {
			t.Fatalf("cross-traffic base %d collides with flow %d", base, f)
		}
	}
}
