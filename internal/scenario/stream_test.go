package scenario

import (
	"testing"
	"time"

	"athena/internal/core"
)

// TestSessionStreamsSeenCoreUnderSenderOffset runs every sender clock
// 30 ms ahead, so replay delivers a packet's core record chunks before
// its sender record. Each live view must still see the core exactly
// when the offline view does. Full digest equality is not asserted here:
// under offset a few views per UE still differ in TB set.
func TestSessionStreamsSeenCoreUnderSenderOffset(t *testing.T) {
	top := NewTopology(2)
	top.Duration = 2 * time.Second
	for i := range top.UEs {
		top.UEs[i].SenderClockOffset = 30 * time.Millisecond
	}
	for _, ss := range RunTopology(top).SessionStreams() {
		var live []bool
		lc := core.NewLive(ss.Input, func(v core.PacketView) { live = append(live, v.SeenCore) })
		if err := ss.Replay(lc, 50*time.Millisecond); err != nil {
			t.Fatalf("stream %s: %v", ss.ID, err)
		}
		offline := core.Correlate(ss.Input).Packets
		if len(live) != len(offline) {
			t.Fatalf("stream %s: emitted %d of %d views", ss.ID, len(live), len(offline))
		}
		differ := 0
		for i, v := range offline {
			if live[i] != v.SeenCore {
				differ++
			}
		}
		if differ > 0 {
			t.Errorf("stream %s: %d of %d views disagree with offline on SeenCore", ss.ID, differ, len(offline))
		}
	}
}

// TestSessionStreamLabels pins the rollup dimension labels on tapped
// streams: each stream carries its UE's attach cell and resolved
// workload family, across shards and mixed workloads.
func TestSessionStreamLabels(t *testing.T) {
	top := NewMultiCellTopology(4, 2)
	top.Duration = time.Second
	top.MixWorkloads()
	res := RunTopology(top)
	streams := res.SessionStreams()
	if len(streams) != 4 {
		t.Fatalf("%d streams", len(streams))
	}
	kinds := make(map[WorkloadKind]int)
	cells := make(map[int]int)
	for _, ss := range streams {
		if ss.Workload == "" {
			t.Fatalf("stream %s: empty workload label", ss.ID)
		}
		if ss.Workload != res.UEs[ss.UE].Workload {
			t.Fatalf("stream %s: workload %q != UE's %q", ss.ID, ss.Workload, res.UEs[ss.UE].Workload)
		}
		if ss.Cell != res.UEs[ss.UE].Spec.Cell {
			t.Fatalf("stream %s: cell %d != UE's %d", ss.ID, ss.Cell, res.UEs[ss.UE].Spec.Cell)
		}
		kinds[ss.Workload]++
		cells[ss.Cell]++
	}
	if len(kinds) < 2 {
		t.Fatalf("mixed workloads collapsed to %v", kinds)
	}
	if len(cells) != 2 {
		t.Fatalf("cells %v, want both cells covered", cells)
	}

	// The single-cell default keeps the historical VCA family and cell 0.
	st := NewTopology(1)
	st.Duration = time.Second
	for _, ss := range RunTopology(st).SessionStreams() {
		if ss.Workload != WorkloadVCA || ss.Cell != 0 {
			t.Fatalf("single-cell stream labels %q/%d", ss.Workload, ss.Cell)
		}
	}
}
